"""Second routes to numbers the library computes, kept for the tests only.

* ``alpha_direct``: alpha_n by the explicit Legendre sum over closed-form
  moments of the twice-differentiated transmutation kernel, to check the
  library's seed-plus-recurrence route.  It carries its own copy of the
  compensated Legendre sum, so it stays independent of the library's.
* ``solution_reference_extended``: u(omega, b) from a fixed-step
  extended-precision run of the oracle's Magnus step, for comparisons
  below ~1e-11 at large omega.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from nsbf.grid import Grid
from nsbf.oracle import _apply_step

#: an entry is flagged when its largest summand exceeds this multiple of
#: the result
CANCEL_FLAG_RATIO = 1e8
#: fraction of b below which the moment sums do not resolve; the direct
#: route stores 0 there
X_MIN_FRACTION = 0.01


def _kahan_add(s, comp, term):
    t = s + term
    comp += np.where(np.abs(s) >= np.abs(term), (s - t) + term, (term - t) + s)
    return t, comp


def _legendre_sum(leg, rows: np.ndarray, n: int):
    """Compensated sum_k l[n][k] rows[k] and its cancellation flags."""
    s = np.zeros(rows.shape[1], dtype=rows.dtype)
    comp = np.zeros_like(s)
    peak = np.zeros(rows.shape[1], dtype=np.longdouble)
    for k in range(n % 2, n + 1, 2):  # l[n][k] = 0 when n - k is odd
        term = leg.l[n, k] * rows[k]
        peak = np.maximum(peak, np.abs(term))
        s, comp = _kahan_add(s, comp, term)
    total = s + comp
    return total, peak > CANCEL_FLAG_RATIO * np.abs(total)


class MomentTable(NamedTuple):
    """Moment rows k[n][j] and the ratios k_n(x)/x^n, the latter computed
    without forming x^n and zero below b/100."""

    grid: Grid
    k: np.ndarray
    ratio: np.ndarray


def moment_table(q, Q, phi, n_max: int) -> MomentTable:
    """Moments of the differentiated kernel in closed form.

    k_0 = q/4 - Q^2/8 - q(0)/4
    k_1 = (q/4 - Q^2/8 + q(0)/4) x - Q/2
    k_n = n(n-1)(phi_{n-2} - x^{n-2})
          + (q/4 - Q^2/8 - (-1)^n q(0)/4) x^n - n Q x^{n-1}/2,   n >= 2.
    """
    grid = q.grid
    x = np.asarray(grid.nodes, dtype=phi.dev_ratio.dtype)
    mask = np.asarray(grid.nodes) >= X_MIN_FRACTION * grid.b
    xq = x[mask]
    q0 = q.values[0]
    core = q.values / 4.0 - Q.values * Q.values / 8.0

    k = np.zeros((n_max + 1, grid.M + 1), dtype=phi.dev_ratio.dtype)
    ratio = np.zeros_like(k)
    k[0] = core - q0 / 4.0
    ratio[0][mask] = k[0][mask]
    if n_max >= 1:
        k[1] = (core + q0 / 4.0) * x - Q.values / 2.0
        ratio[1][mask] = (core + q0 / 4.0)[mask] - Q.values[mask] / (2.0 * xq)
    xnm2 = np.ones_like(x)  # x^(n-2)
    for n in range(2, n_max + 1):
        xnm1 = xnm2 * x
        sign = 1.0 if n % 2 == 0 else -1.0
        k[n] = (
            n * (n - 1) * (phi.dev_ratio[n - 2] * xnm2)
            + (core - sign * q0 / 4.0) * (xnm1 * x)
            - 0.5 * n * Q.values * xnm1
        )
        ratio[n][mask] = (
            n * (n - 1) * phi.dev_ratio[n - 2][mask] / (xq * xq)
            + (core - sign * q0 / 4.0)[mask]
            - 0.5 * n * Q.values[mask] / xq
        )
        xnm2 = xnm1
    return MomentTable(grid, k, ratio)


def alpha_direct(moments: MomentTable, leg, n: int):
    """Row n of alpha, (2n+1)/2 sum_m l[n][m] k_m(x)/x^m, and its
    cancellation flags; nodes below b/100 hold 0."""
    mask = np.asarray(moments.grid.nodes) >= X_MIN_FRACTION * moments.grid.b
    row = np.zeros(moments.grid.M + 1, dtype=moments.ratio.dtype)
    flags = np.zeros(moments.grid.M + 1, dtype=bool)
    total, flags[mask] = _legendre_sum(leg, moments.ratio[: n + 1][:, mask], n)
    row[mask] = 0.5 * (2 * n + 1) * total
    return row, flags


def dual_route_deviation(alpha: np.ndarray, moments: MomentTable, leg):
    """Largest relative deviation of alpha rows 4..25 from ``alpha_direct``
    over its unflagged entries at x >= b/4, and the number of rows with
    such entries."""
    grid = moments.grid
    window = np.asarray(grid.nodes, dtype=float) >= grid.b / 4.0
    worst, tested = 0.0, 0
    for n in range(4, 26):
        direct, flags = alpha_direct(moments, leg, n)
        ok = window & ~flags
        if not ok.any():
            continue
        tested += 1
        d = np.asarray(direct, dtype=float)[ok]
        r = np.asarray(alpha[n], dtype=float)[ok]
        worst = max(worst, float(np.max(np.abs(d - r) / np.maximum(np.abs(d), 1e-300))))
    return worst, tested


def inverse_relation_deviation(alpha: np.ndarray, beta: np.ndarray, grid) -> float:
    """beta_m (m = 2..23) recovered from alpha rows m-2, m, m+2 at x = b and
    b/2: the largest deviation relative to max(1, |beta_m|)."""
    worst = 0.0
    for j in (grid.M, grid.M // 2):
        x = float(grid.nodes[j])
        for m in range(2, 24):
            recon = x * x * (
                alpha[m + 2, j] / ((2 * m + 3) * (2 * m + 5))
                - 2.0 * alpha[m, j] / ((2 * m - 1) * (2 * m + 3))
                + alpha[m - 2, j] / ((2 * m - 3) * (2 * m - 1))
            )
            dev = abs(float(recon - beta[m, j]))
            worst = max(worst, dev / max(1.0, abs(float(beta[m, j]))))
    return worst


def solution_reference_extended(q, b: float, omegas) -> np.ndarray:
    """u(omega, b) with u(0)=1, u'(0)=i*omega by fixed steps in extended
    precision.

    Validated against closed forms and a 40-digit Taylor integration:
    with max(16000, 6 omega b) steps the endpoint error stays below
    ~5e-14 for omega up to 1e3, where adaptive float64 stepping is limited
    near 1e-12 by accumulated phase round-off.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    n_steps = int(max(16000, math.ceil(6.0 * float(np.max(np.abs(omegas))) * b)))
    lam = np.asarray(omegas**2, dtype=np.longdouble)
    scale = np.sqrt(np.maximum(np.abs(lam), 1.0))
    y = np.stack((np.ones_like(lam), 1j * omegas / scale)).astype(np.clongdouble)
    h = np.longdouble(b) / n_steps
    x = np.longdouble(0.0)
    for _ in range(n_steps):
        y = _apply_step(q, float(x), float(h), lam, scale, y)
        x += h
    return y[0].astype(complex)
