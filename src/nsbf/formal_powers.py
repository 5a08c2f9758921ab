"""Formal powers and the power-series evaluation of the solution in the
spectral parameter.

The formal powers phi_k generalize the monomials x^k: they are built from a
nonvanishing solution of f'' = q f by alternating weighted indefinite
integrals, and reduce to x^k exactly when q = 0.  They feed the series
coefficients downstream; ``spps_eval`` sums the power series in omega from
them, which no evaluation path calls: it is an independent test oracle.

Everything downstream consumes phi_k through the deviation ratios
(phi_k - x^k)/x^k, so the recursions here track the deviations from the
monomials directly rather than the formal powers themselves.  That keeps
the q = 0 case exactly zero and avoids losing digits to the huge x^k
magnitudes when it is not.

When the default homogeneous solution f0 has zeros on the interval (q = -1
on [0, pi] is the classic case), the table is built from the combination
f = f0 + i*f1 instead, which never vanishes for real q, and converted back.
Both routes share the deviations f D^(k) + (f - 1) x^k, their running
x^k rows and the assembly.  The rows come from an iterator that keeps
the recursion's state, so a table built to some k is extended later by
resuming its build, not by starting over
(``FormalPowersTable.dev_ratio_to``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

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
    #: the iterator of the rows past k_max, resumed by ``dev_ratio_to``
    _rows: Iterator | None = field(default=None, repr=False, compare=False)

    def dev_ratio_to(self, k_max: int) -> np.ndarray:
        """dev_ratio rows 0..k_max: this table's, continued by resuming its
        build where it stopped.  Every row has the bits that a table built
        to k_max gives it.

        Once only: the table drops its build state.
        """
        if self._rows is None:
            raise ValueError("this table has no build to resume")
        _, tail = _take(self.grid, self._rows, k_max - self.k_max,
                        self.dev_ratio.dtype)
        object.__setattr__(self, "_rows", None)
        return np.concatenate((self.dev_ratio, tail))


def _weight_deviations(fvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f^2 - 1, 1/f^2 - 1) without forming the near-unit products."""
    dev_f = fvals - 1.0
    dev_sq = dev_f * (fvals + 1.0)  # f^2 - 1
    dev_inv = -dev_sq / (fvals * fvals)  # 1/f^2 - 1
    return dev_sq, dev_inv


class _PowerRows:
    """phi_k - x^k = f D^(k) + (f - 1) x^k in f's dtype, with the extended
    x^k row, for k = 0, 1, 2, ...: an iterator.

    D^(k) = X^(k) - x^k or Xt^(k) - x^k, the deviation of the member of the
    two recursive-integral families that phi_k uses.  With w_n the weight
    (f^2)^(+-1) of family member n, the deviations obey

        D^(n) = n * int_0^x ( D^(n-1) w + s^(n-1) (w - 1) ) ds,

    which vanishes identically when f = 1.  The two families advance
    together, one stacked (2, M+1) integral per order, and D^(0) = 0.

    Between rows it holds the last pair of the recursion and the running
    x^k rows (in f's real dtype for the recursion, extended for the
    result), so a table that stopped at some k is extended by resuming it.
    The next order's integral is taken only when its row is asked for.
    """

    def __init__(self, grid: Grid, f: np.ndarray):
        dev_sq, dev_inv = _weight_deviations(f)
        w_sq = f * f
        w_inv = 1.0 / w_sq
        self.grid, self.f, self.dev_f = grid, f, f - 1.0
        # row 0 of each stack is the D family, row 1 the Dt family: odd
        # orders weight D by 1/f^2 and Dt by f^2, even orders the other way
        w_odd, dev_odd = np.stack((w_inv, w_sq)), np.stack((dev_inv, dev_sq))
        self.odd, self.even = (w_odd, dev_odd), (w_odd[::-1], dev_odd[::-1])
        self.pair = np.zeros((2, grid.M + 1), dtype=f.dtype)  # order k
        # running products: x^(k-1) in f's real dtype, and x^k extended
        self.x = grid.nodes.astype(f.real.dtype)
        self.x_ext = grid.nodes.astype(np.longdouble)
        self.xk_prev, self.xk = np.ones_like(self.x), np.ones_like(self.x_ext)
        self.k = -1

    def __iter__(self):
        return self

    def __next__(self) -> tuple[np.ndarray, np.ndarray]:
        k = self.k = self.k + 1
        if k > 0:
            w, dev = self.odd if k % 2 == 1 else self.even
            self.pair = k * indefinite_integral(
                self.grid, self.pair * w + self.xk_prev * dev)
            self.xk_prev, self.xk = self.xk_prev * self.x, self.xk * self.x_ext
        # f first, as numpy's complex product need not commute bit for bit
        f = self.f
        dev_phi = f * self.pair[(k + 1) % 2] + np.multiply(
            self.dev_f, self.xk, dtype=f.dtype)
        return dev_phi, self.xk


class _ConvertedRows:
    """The rows of ``_PowerRows`` for f = f0 + i f1, converted back to the
    powers of f0 with f'(0) = i: phi_k = Phi_k for odd k, and
    Phi_k - f'(0)/(k+1) * Phi_{k+1} for even k, in ``dtype``.

    An iterator one row ahead of what it returns: it holds Phi's next row.
    """

    def __init__(self, grid: Grid, f: np.ndarray, dtype):
        self.rows = _PowerRows(grid, f)
        self.x = np.asarray(grid.nodes, dtype=complex)
        self.dtype = dtype
        self.ahead = next(self.rows)

    def __iter__(self):
        return self

    def __next__(self) -> tuple[np.ndarray, np.ndarray]:
        k = self.rows.k
        (dev, xk), self.ahead = self.ahead, next(self.rows)
        if k % 2 == 0:
            # Phi_{k+1} = x^{k+1} + dev_Phi_{k+1}, with x^{k+1} rounded as
            # the complex128 product of x^k and x
            Phi_next = xk.astype(complex)
            Phi_next *= self.x
            Phi_next += self.ahead[0]
            dev = dev - np.multiply(1j / (k + 1), Phi_next, out=Phi_next)
        # for real q the converted powers are real up to round-off
        if dev.dtype != self.dtype:
            dev = dev.real.astype(self.dtype)
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


def _take(grid: Grid, rows: Iterator, count: int, dtype):
    """The next ``count`` rows of a row iterator as the tables phi_k and
    dev_phi_k/x^k in ``dtype``, x^k rounded to it."""
    phi = np.empty((count, grid.M + 1), dtype=dtype)
    dev_ratio = np.zeros_like(phi)
    for i, (dev, xk) in enumerate(itertools.islice(rows, count)):
        np.add(xk, dev, out=phi[i], dtype=dtype)
        np.divide(dev[1:], xk[1:], out=dev_ratio[i, 1:], dtype=dtype)
    return phi, dev_ratio


def _table(grid: Grid, rows: Iterator, k_max: int, dtype, **meta):
    """The table of rows 0..k_max of a fresh row iterator, which it keeps
    for ``FormalPowersTable.dev_ratio_to``."""
    phi, dev_ratio = _take(grid, rows, k_max + 1, dtype)
    return FormalPowersTable(grid, phi, dev_ratio, k_max, _rows=rows, **meta)


def formal_powers(grid: Grid, f0: np.ndarray, k_max: int) -> FormalPowersTable:
    """Formal powers built directly from a nonvanishing f0.

    phi_k = f0 * X^(k) for odd k and f0 * Xt^(k) for even k; phi_k = x^k
    exactly when q = 0.
    """
    _check_nonvanishing(f0)
    return _table(grid, _PowerRows(grid, f0), k_max, f0.dtype)


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
    real = not (np.iscomplexobj(f0) or np.iscomplexobj(f1))
    dtype = f0.dtype if real else f.dtype
    return _table(grid, _ConvertedRows(grid, f, dtype), k_max, dtype,
                  used_nonvanishing=True)


def spps_eval(
    table: FormalPowersTable, omega: complex, x_index: int, k_trunc: int
) -> complex:
    """Partial sum of the solution's power series in the spectral parameter.

    u(omega, x) = sum_n (i omega)^n phi_n(x) / n!, truncated at k_trunc.
    Accurate for moderate |omega| * b; the tests check the Bessel-series
    forms against it (at omega = 0 the sum is phi_0 = f0).
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
