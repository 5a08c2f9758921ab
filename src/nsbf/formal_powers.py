"""Formal powers and the power-series evaluation of the solution in the
spectral parameter.

The formal powers phi_k generalize the monomials x^k: they are built from a
nonvanishing solution of f'' = q f by alternating weighted indefinite
integrals, and reduce to x^k exactly when q = 0.  They feed both the
series coefficients downstream and, through ``spps_eval``, a small-omega
evaluation path that doubles as an independent test oracle.

Everything downstream consumes phi_k through the deviation ratios
(phi_k - x^k)/x^k, so the recursions here track the deviations from the
monomials directly rather than the formal powers themselves.  That keeps
the q = 0 case exactly zero and avoids losing digits to the huge x^k
magnitudes when it is not.

When the default homogeneous solution f0 has zeros on the interval (q = -1
on [0, pi] is the classic case), the table is built from the combination
f = f0 + i*f1 instead, which never vanishes for real q, and converted back.
Both routes share the deviations f D^(k) + (f - 1) x^k and the assembly,
and take every x^k row from one running product, ``_monomials``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NearVanishingError
from .grid import Grid, indefinite_integral

__all__ = [
    "FormalPowersTable",
    "formal_powers",
    "formal_powers_nonvanishing",
    "spps_eval",
]

#: below this, 1/f0^2 amplifies quadrature error beyond repair
F0_MIN = 1e-3
#: validity floor for the nonvanishing combination (complex q only)
F_COMBINED_MIN = 1e-6


@dataclass(frozen=True)
class FormalPowersTable:
    """Formal powers phi_k and their monomial deviations on the grid.

    phi[k][j] = phi_k(x_j) for k = 0..k_max.  dev_ratio[k][j] holds
    (phi_k - x^k)/x^k, the quantity every coefficient formula actually
    needs; it is identically zero for q = 0 and O(x^2) near the origin
    (the origin node itself stores the limit 0).

    ``used_nonvanishing`` records whether the f0 + i*f1 fallback route was
    taken.
    """

    grid: Grid
    phi: np.ndarray = field(repr=False)
    dev_ratio: np.ndarray = field(repr=False)
    k_max: int
    used_nonvanishing: bool = False


def _weight_deviations(fvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f^2 - 1, 1/f^2 - 1) without forming the near-unit products."""
    dev_f = fvals - 1.0
    dev_sq = dev_f * (fvals + 1.0)  # f^2 - 1
    dev_inv = -dev_sq / (fvals * fvals)  # 1/f^2 - 1
    return dev_sq, dev_inv


def _monomials(grid: Grid, k_max: int, dtype) -> np.ndarray:
    """Rows x^0 .. x^k_max on the grid, running products in ``dtype``."""
    xk = np.empty((k_max + 1, grid.M + 1), dtype=dtype)
    xk[:1], xk[1:] = 1.0, grid.nodes
    return np.multiply.accumulate(xk, out=xk)


def _deviation_recursion(grid: Grid, f: np.ndarray, k_max: int) -> np.ndarray:
    """Deviations of the two recursive-integral families from x^n.

    With w_n the weight (f^2)^(+-1) of family member n, the deviations
    D^(n) = X^(n) - x^n obey

        D^(n) = n * int_0^x ( D^(n-1) w + s^(n-1) (w - 1) ) ds,

    which vanishes identically when f = 1.  The two families advance
    together, one stacked (2, M+1) integral per order.  Returns the member
    that phi_k uses, D^(k) for odd k and Dt^(k) for even k, as one array
    of shape (k_max+1, M+1); row 0 is zero.
    """
    dev_sq, dev_inv = _weight_deviations(f)
    w_sq = f * f
    w_inv = 1.0 / w_sq

    # row 0 of each stack is the D family, row 1 the Dt family: odd orders
    # weight D by 1/f^2 and Dt by f^2, even orders the other way round
    w_odd, dev_odd = np.stack((w_inv, w_sq)), np.stack((dev_inv, dev_sq))
    w_even, dev_even = w_odd[::-1], dev_odd[::-1]
    D = np.zeros((k_max + 1, grid.M + 1), dtype=f.dtype)
    pair = np.zeros((2, grid.M + 1), dtype=f.dtype)  # order n-1
    xk = _monomials(grid, k_max - 1, f.real.dtype)
    for n in range(1, k_max + 1):
        w, dev = (w_odd, dev_odd) if n % 2 == 1 else (w_even, dev_even)
        pair = n * indefinite_integral(grid, pair * w + xk[n - 1] * dev)
        D[n] = pair[(n + 1) % 2]
    return D


def _power_deviations(
    grid: Grid, f: np.ndarray, k_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """phi_k - x^k = f D^(k) + (f - 1) x^k for k = 0..k_max, in f's dtype,
    and the x^k rows (extended) that it used."""
    dev = _deviation_recursion(grid, f, k_max)
    xk = _monomials(grid, k_max, np.longdouble)
    dev_f = f - 1.0
    # row by row, so no temporary is as large as the table; f first, as
    # numpy's complex product need not commute bit for bit
    for k in range(k_max + 1):
        dev[k] = f * dev[k] + np.multiply(dev_f, xk[k], dtype=dev.dtype)
    return dev, xk


def _check_nonvanishing(f0: np.ndarray):
    fmin = float(np.min(np.abs(f0)))
    if fmin <= F0_MIN:
        raise NearVanishingError(
            f"min |f0| = {fmin:.3e} <= {F0_MIN}; use the nonvanishing route"
        )
    # a zero of a real solution is simple (a double zero would force
    # f0 = 0), so one that falls between two nodes shows as a sign change
    if not np.iscomplexobj(f0):
        sign = np.signbit(f0)
        if np.any(sign[1:] != sign[:-1]):
            raise NearVanishingError(
                "f0 changes sign between grid nodes; use the nonvanishing "
                "route"
            )


def _assemble_table(
    grid: Grid, dev_phi: np.ndarray, xk: np.ndarray, **meta
) -> FormalPowersTable:
    """phi_k and dev_phi_k/x^k, x^k rounded to dev_phi's dtype."""
    dtype = dev_phi.dtype
    phi = np.add(xk, dev_phi, dtype=dtype)
    dev_ratio = np.zeros_like(dev_phi)
    np.divide(dev_phi[:, 1:], xk[:, 1:], out=dev_ratio[:, 1:], dtype=dtype)
    return FormalPowersTable(grid, phi, dev_ratio, len(xk) - 1, **meta)


def formal_powers(grid: Grid, f0: np.ndarray, k_max: int) -> FormalPowersTable:
    """Formal powers built directly from a nonvanishing f0.

    phi_k = f0 * X^(k) for odd k and f0 * Xt^(k) for even k; phi_k = x^k
    exactly when q = 0.
    """
    _check_nonvanishing(f0)
    return _assemble_table(grid, *_power_deviations(grid, f0, k_max))


def formal_powers_nonvanishing(
    grid: Grid, f0: np.ndarray, f1: np.ndarray, k_max: int
) -> FormalPowersTable:
    """Formal powers through the nonvanishing combination f = f0 + i*f1.

    For real q this f never vanishes (its real and imaginary parts solve
    the same equation with independent initial data).  The table for f is
    built one index beyond k_max and converted back with f'(0) = i:
    phi_k = Phi_k for odd k, Phi_k - f'(0)/(k+1) * Phi_{k+1} for even k.

    Raises
    ------
    NearVanishingError
        If |f| dips below 1e-6 (possible only for complex q).
    """
    f = f0.astype(complex) + 1j * f1.astype(complex)
    fmin = float(np.min(np.abs(f)))
    if fmin <= F_COMBINED_MIN:
        raise NearVanishingError(
            f"min |f0 + i f1| = {fmin:.3e} <= {F_COMBINED_MIN}; no "
            "nonvanishing solution available for this potential"
        )
    dev, xk = _power_deviations(grid, f, k_max + 1)
    # even k, in place: Phi_{k+1} = x^{k+1} + dev_Phi_{k+1}, f'(0) = i, and
    # x^{k+1} rounded as the complex128 product of x^k and x
    even, odd = slice(0, k_max + 1, 2), slice(1, k_max + 2, 2)
    Phi_next = xk[even].astype(complex)
    Phi_next *= np.asarray(grid.nodes, dtype=complex)
    Phi_next += dev[odd]
    fprime0_k = 1j / np.arange(1, k_max + 2, 2)[:, None]
    dev[even] -= np.multiply(fprime0_k, Phi_next, out=Phi_next)
    dev = dev[: k_max + 1]
    # for real q the converted powers are real up to round-off
    if not (np.iscomplexobj(f0) or np.iscomplexobj(f1)):
        dev = dev.real.astype(f0.dtype)
    return _assemble_table(grid, dev, xk[: k_max + 1], used_nonvanishing=True)


def spps_eval(
    table: FormalPowersTable, omega: complex, x_index: int, k_trunc: int
) -> complex:
    """Partial sum of the solution's power series in the spectral parameter.

    u(omega, x) = sum_n (i omega)^n phi_n(x) / n!, truncated at k_trunc.
    Accurate for moderate |omega| * b; ``eval_auto`` calls it only at
    omega = 0, where the sum is phi_0 = f0.
    """
    if k_trunc > table.k_max:
        raise ValueError(
            f"k_trunc={k_trunc} exceeds table k_max={table.k_max}"
        )
    acc = 0.0 + 0.0j
    term = 1.0 + 0.0j  # (i omega)^n / n!
    iw = 1j * omega
    for n in range(k_trunc + 1):
        acc += term * complex(table.phi[n, x_index])
        term *= iw / (n + 1)
    return acc
