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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NearVanishingError
from .grid import Grid, SampledFunction, indefinite_integral

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


def _deviation_recursion(
    f: SampledFunction, k_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deviations of the two recursive-integral families from x^n.

    With w_n the weight (f^2)^(+-1) of family member n, the deviations
    D^(n) = X^(n) - x^n obey

        D^(n) = n * int_0^x ( D^(n-1) w + s^(n-1) (w - 1) ) ds,

    which vanishes identically when f = 1.  Returns (D, Dt), each of
    shape (k_max+1, M+1); row 0 is zero.
    """
    grid = f.grid
    x = np.asarray(grid.nodes, dtype=f.values.dtype)
    dev_sq, dev_inv = _weight_deviations(f.values)
    w_sq = f.values * f.values
    w_inv = 1.0 / w_sq

    D = np.zeros((k_max + 1, grid.M + 1), dtype=f.values.dtype)
    Dt = np.zeros_like(D)
    x_pow = np.ones_like(x)  # x^(n-1)
    for n in range(1, k_max + 1):
        if n % 2 == 1:
            w_D, dev_D = w_inv, dev_inv
            w_Dt, dev_Dt = w_sq, dev_sq
        else:
            w_D, dev_D = w_sq, dev_sq
            w_Dt, dev_Dt = w_inv, dev_inv
        D[n] = n * indefinite_integral(
            SampledFunction(grid, D[n - 1] * w_D + x_pow * dev_D)
        ).values
        Dt[n] = n * indefinite_integral(
            SampledFunction(grid, Dt[n - 1] * w_Dt + x_pow * dev_Dt)
        ).values
        x_pow = x_pow * x
    return D, Dt


def _check_nonvanishing(f0: SampledFunction):
    fmin = float(np.min(np.abs(f0.values)))
    if fmin <= F0_MIN:
        raise NearVanishingError(
            f"min |f0| = {fmin:.3e} <= {F0_MIN}; use the nonvanishing route"
        )
    # a zero of a real solution is simple (a double zero would force
    # f0 = 0), so one that falls between two nodes shows as a sign change
    if not f0.is_complex:
        sign = np.signbit(f0.values)
        if np.any(sign[1:] != sign[:-1]):
            raise NearVanishingError(
                "f0 changes sign between grid nodes; use the nonvanishing "
                "route"
            )


def _assemble_table(
    f: SampledFunction, dev_phi: np.ndarray, k_max: int, **meta
) -> FormalPowersTable:
    grid = f.grid
    x = np.asarray(grid.nodes, dtype=np.longdouble)
    phi = np.empty_like(dev_phi)
    dev_ratio = np.zeros_like(dev_phi)
    x_pow = np.ones_like(x)
    for k in range(k_max + 1):
        phi[k] = x_pow.astype(dev_phi.dtype) + dev_phi[k]
        dev_ratio[k, 1:] = dev_phi[k, 1:] / x_pow[1:].astype(dev_phi.dtype)
        x_pow = x_pow * x
    return FormalPowersTable(grid, phi, dev_ratio, k_max, **meta)


def formal_powers(f0: SampledFunction, k_max: int) -> FormalPowersTable:
    """Formal powers built directly from a nonvanishing f0.

    phi_k = f0 * X^(k) for odd k and f0 * Xt^(k) for even k; phi_k = x^k
    exactly when q = 0.
    """
    _check_nonvanishing(f0)
    D, Dt = _deviation_recursion(f0, k_max)
    x = np.asarray(f0.grid.nodes, dtype=f0.values.dtype)
    dev_f0 = f0.values - 1.0

    # phi_k - x^k = f0 * D^(k) + (f0 - 1) x^k
    dev_phi = np.empty_like(D)
    x_pow = np.ones_like(x)
    for k in range(k_max + 1):
        Dk = D[k] if k % 2 == 1 else Dt[k]
        dev_phi[k] = f0.values * Dk + dev_f0 * x_pow
        x_pow = x_pow * x
    return _assemble_table(f0, dev_phi, k_max)


def formal_powers_nonvanishing(
    f0: SampledFunction, f1: SampledFunction, k_max: int
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
    grid = f0.grid
    f = SampledFunction(
        grid, f0.values.astype(complex) + 1j * f1.values.astype(complex)
    )
    fmin = float(np.min(np.abs(f.values)))
    if fmin <= F_COMBINED_MIN:
        raise NearVanishingError(
            f"min |f0 + i f1| = {fmin:.3e} <= {F_COMBINED_MIN}; no "
            "nonvanishing solution available for this potential"
        )
    D, Dt = _deviation_recursion(f, k_max + 1)
    x = np.asarray(grid.nodes, dtype=np.longdouble)
    dev_f = f.values - 1.0

    dev_Phi = np.empty((k_max + 2, grid.M + 1), dtype=complex)
    x_pow = np.ones_like(x)
    for k in range(k_max + 2):
        Dk = D[k] if k % 2 == 1 else Dt[k]
        dev_Phi[k] = f.values * Dk + dev_f * x_pow.astype(complex)
        x_pow = x_pow * x

    fprime0 = 1j
    dev_phi = np.empty((k_max + 1, grid.M + 1), dtype=complex)
    x_pow = np.ones_like(x)
    for k in range(k_max + 1):
        if k % 2 == 1:
            dev_phi[k] = dev_Phi[k]
        else:
            # Phi_{k+1} = x^{k+1} + dev_Phi_{k+1}
            dev_phi[k] = dev_Phi[k] - fprime0 / (k + 1) * (
                x_pow.astype(complex) * x.astype(complex) + dev_Phi[k + 1]
            )
        x_pow = x_pow * x
    # for real q the converted powers are real up to round-off
    if not (f0.is_complex or f1.is_complex):
        dev_phi = dev_phi.real.astype(f0.values.dtype)
    return _assemble_table(f0, dev_phi, k_max, used_nonvanishing=True)


def spps_eval(
    table: FormalPowersTable, omega: complex, x_index: int, k_trunc: int
) -> complex:
    """Partial sum of the solution's power series in the spectral parameter.

    u(omega, x) = sum_n (i omega)^n phi_n(x) / n!, truncated at k_trunc.
    Accurate for moderate |omega| * b; used in production only below the
    omega switch of the solution module.
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
