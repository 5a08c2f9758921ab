"""Series coefficients for the two solution representations.

Computes, on the grid:

* Legendre polynomial coefficients l[n][k] by the Bonnet recurrence;
* beta_n, the coefficients of the plain Bessel-series representation,
  from the formal powers via the explicit Legendre-sum formula;
* alpha_n, the Fourier-Legendre coefficients of the twice-differentiated
  transmutation kernel: rows 0..3 from closed-form seeds, rows >= 4 by the
  recurrence that reuses beta;
* the eps1/eps2 accuracy indicators comparing the alpha sums against the
  kernel's closed boundary values.

All formulas are evaluated through the monomial deviations
(phi_k - x^k)/x^k, so every table is exactly zero for q = 0.  The
Legendre sums still cancel violently as n grows (the coefficients grow
like 2^n while the sums stay bounded); summation is compensated, badly
cancelling entries are flagged, and the pipeline runs in extended
precision where the platform has it.  Orders are capped at 60.

Every formula is evaluated at every node x > 0.  At the origin each is a
removable 0/0 form whose limit is exactly 0, and node 0 stores that limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import LimitError
from .formal_powers import FormalPowersTable
from .grid import Grid, SampledFunction, derivative

__all__ = [
    "LegendreCoeffs",
    "BetaTable",
    "AlphaTable",
    "legendre_coeffs",
    "beta_coeffs",
    "alpha_seed",
    "alpha_recurrence",
    "build_alpha_table",
    "accuracy_indicators",
]

#: order cap for Legendre coefficient tables (documented overflow risk)
LEGENDRE_CAP = 120
#: cap on coefficient table rows: the solution truncation is capped at 60
#: (beyond which the Legendre sums carry no trustworthy digits in double
#: precision), plus headroom for the error-surrogate tail rows
ORDER_CAP = 70
#: a (n, j) entry is flagged when the largest summand exceeds this multiple
#: of the result
CANCEL_FLAG_RATIO = 1e8
#: noise floor of a cancelling sum, as a multiple of machine epsilon times
#: its largest summand; entries below their floor are indistinguishable
#: from zero and are stored as zero (calibrated against independent
#: high-precision sums; worst observed noise ~600 eps)
NOISE_FLOOR_EPS_FACTOR = 2000.0
#: a coefficient sequence alpha_n(x) at fixed x decays in n for smooth q
#: while round-off noise grows through the recurrence; once the sequence
#: has risen this far back above its running minimum, the remaining rows
#: at that node are noise and are stored as zero (truncation of an
#: asymptotic-like sequence at its smallest term)
NOISE_ONSET_RISE = 30.0


@dataclass(frozen=True)
class LegendreCoeffs:
    """l[n][k] = coefficient of x^k in the Legendre polynomial P_n."""

    n_max: int
    l: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class BetaTable:
    """beta[n][j] = beta_n(x_j), n = 0..n_max.

    ``flags`` marks entries whose Legendre sum cancelled by more than
    CANCEL_FLAG_RATIO (diagnostic only).  ``noise_floor`` is the absolute
    resolution limit of each entry; values that came out below their floor
    are stored as zero, the best available estimate.
    """

    grid: Grid
    n_max: int
    beta: np.ndarray = field(repr=False)
    flags: np.ndarray = field(repr=False)
    noise_floor: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class AlphaTable:
    """alpha[n][j] = alpha_n(x_j), n = 0..n_max.

    ``noise_floor`` propagates the beta floors through the recurrence;
    sub-floor entries are stored as zero.
    """

    grid: Grid
    n_max: int
    alpha: np.ndarray = field(repr=False)
    flags: np.ndarray = field(repr=False)
    noise_floor: np.ndarray = field(repr=False)


def legendre_coeffs(n_max: int) -> LegendreCoeffs:
    """Coefficient arrays of P_0 .. P_{n_max} by the Bonnet recurrence.

    (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}, carried out on exact
    rational coefficient arrays and rounded once at the end.  The carriers
    downstream multiply these by ~2^n-sized weights, so each entry being
    correctly rounded (instead of carrying n accumulated roundings) is
    worth real digits at high order.
    """
    if n_max > LEGENDRE_CAP:
        raise LimitError(
            f"Legendre order {n_max} exceeds cap {LEGENDRE_CAP}; "
            "coefficients overflow double precision beyond it"
        )
    rows = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for n in range(1, n_max):
        prev, cur = rows[n - 1], rows[n]
        nxt = [Fraction(0)] * (n + 2)
        for k, c in enumerate(cur):
            nxt[k + 1] += (2 * n + 1) * c
        for k, c in enumerate(prev):
            nxt[k] -= n * c
        rows.append([c / (n + 1) for c in nxt])

    l = np.zeros((n_max + 1, n_max + 1), dtype=np.longdouble)
    for n in range(n_max + 1):
        for k, c in enumerate(rows[n]):
            if c:
                l[n, k] = np.longdouble(c.numerator) / np.longdouble(
                    c.denominator
                )
    return LegendreCoeffs(n_max, l)


def _kahan_add(s, comp, term):
    t = s + term
    comp += np.where(np.abs(s) >= np.abs(term), (s - t) + term, (term - t) + s)
    return t, comp


def _legendre_sum(
    leg: LegendreCoeffs, rows: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compensated sum_k l[n][k] rows[k].

    Returns (total, flags, peak): the cancellation flags and the largest
    summand magnitude, from which the caller derives the noise floor.
    """
    s = np.zeros(rows.shape[1], dtype=rows.dtype)
    comp = np.zeros_like(s)
    peak = np.zeros(rows.shape[1], dtype=np.longdouble)
    for k in range(n % 2, n + 1, 2):  # l[n][k] = 0 when n - k is odd
        term = leg.l[n, k] * rows[k]
        peak = np.maximum(peak, np.abs(term))
        s, comp = _kahan_add(s, comp, term)
    total = s + comp
    flags = peak > CANCEL_FLAG_RATIO * np.abs(total)
    return total, flags, peak


def _pipeline_eps(dtype) -> float:
    return float(np.finfo(dtype).eps) * NOISE_FLOOR_EPS_FACTOR


def beta_coeffs(
    phi: FormalPowersTable, leg: LegendreCoeffs, n_max: int
) -> BetaTable:
    """Coefficients of the plain Bessel-series representation.

    beta_n(x) = (2n+1)/2 * (sum_k l[n][k] phi_k(x)/x^k - 1): since the
    Legendre coefficients of every P_n sum to 1, the subtracted 1 cancels
    against the monomial parts of the ratios, leaving the compensated sum
    of l[n][k] (phi_k - x^k)/x^k.  Node 0 keeps the limit 0.
    """
    if n_max > ORDER_CAP:
        raise LimitError(f"beta order {n_max} exceeds cap {ORDER_CAP}")
    if phi.k_max < n_max:
        raise ValueError(f"need phi up to k={n_max}, table has {phi.k_max}")
    grid = phi.grid
    eps = _pipeline_eps(phi.dev_ratio.real.dtype)

    dev = phi.dev_ratio[: n_max + 1, 1:]
    beta = np.zeros((n_max + 1, grid.M + 1), dtype=phi.dev_ratio.dtype)
    flags = np.zeros((n_max + 1, grid.M + 1), dtype=bool)
    floor = np.zeros((n_max + 1, grid.M + 1), dtype=np.longdouble)
    for n in range(n_max + 1):
        total, frow, peak = _legendre_sum(leg, dev, n)
        nf = eps * 0.5 * (2 * n + 1) * peak
        row = 0.5 * (2 * n + 1) * total
        beta[n, 1:] = np.where(np.abs(row) < nf, 0.0, row)
        flags[n, 1:] = frow
        floor[n, 1:] = nf
    return BetaTable(grid, n_max, beta, flags, floor)


def alpha_seed(
    q: SampledFunction,
    Q: SampledFunction,
    phi: FormalPowersTable,
) -> np.ndarray:
    """Closed-form alpha rows 0..3.

    With q_+- = q/4 - Q^2/8 +- q(0)/4:

        alpha_0 = q_-/2
        alpha_1 = 3/2 (q_+ - Q/(2x))
        alpha_2 = 5/2 (q_- + 3(phi_0 - 1)/x^2 - 3Q/(2x))
        alpha_3 = 7/2 (q_+ + 15(phi_1 - x)/x^3 - 3Q/x)

    All four rows tend to 0 as x -> 0; node 0 keeps that limit.
    """
    grid = q.grid
    q0 = q.values[0]
    core = q.values[1:] / 4.0 - Q.values[1:] * Q.values[1:] / 8.0
    qplus = core + q0 / 4.0
    qminus = core - q0 / 4.0
    Qx = Q.values[1:]
    dev = phi.dev_ratio[:2, 1:]

    x = grid.nodes[1:].astype(phi.dev_ratio.dtype)
    rows = np.zeros((4, grid.M + 1), dtype=phi.dev_ratio.dtype)
    rows[0, 1:] = 0.5 * qminus
    rows[1, 1:] = 1.5 * (qplus - Qx / (2.0 * x))
    rows[2, 1:] = 2.5 * (qminus + 3.0 * dev[0] / (x * x) - 1.5 * Qx / x)
    rows[3, 1:] = 3.5 * (qplus + 15.0 * dev[1] / (x * x) - 3.0 * Qx / x)
    return rows


def alpha_recurrence(
    beta: BetaTable, alpha: np.ndarray, n: int
) -> np.ndarray:
    """Row n >= 4 of alpha from rows n-2, n-4 and beta row n-2.

    alpha_n = (2n-1)(2n+1) ( beta_{n-2}/x^2
                             + 2 alpha_{n-2}/((2n-5)(2n-1))
                             - alpha_{n-4}/((2n-7)(2n-5)) ).

    Node 0 keeps the limit 0.
    """
    if n < 4:
        raise ValueError(f"recurrence starts at n=4, got {n}")
    if beta.n_max < n - 2:
        raise ValueError(f"need beta up to {n - 2}, table has {beta.n_max}")
    if alpha.shape[0] < n - 1:
        raise ValueError(f"need alpha rows up to {n - 2}")
    grid = beta.grid
    x = grid.nodes[1:].astype(alpha.dtype)
    row = np.zeros(grid.M + 1, dtype=alpha.dtype)
    row[1:] = (2 * n - 1) * (2 * n + 1) * (
        beta.beta[n - 2, 1:] / (x * x)
        + 2.0 * alpha[n - 2, 1:] / ((2 * n - 5) * (2 * n - 1))
        - alpha[n - 4, 1:] / ((2 * n - 7) * (2 * n - 5))
    )
    return row


def build_alpha_table(
    q: SampledFunction,
    Q: SampledFunction,
    phi: FormalPowersTable,
    beta: BetaTable,
    n_max: int,
) -> AlphaTable:
    """Alpha rows 0..n_max: closed-form seeds, then the recurrence."""
    if n_max > ORDER_CAP:
        raise LimitError(f"alpha order {n_max} exceeds cap {ORDER_CAP}")
    grid = q.grid
    x2 = np.asarray(grid.nodes[1:], dtype=np.longdouble) ** 2
    seed = alpha_seed(q, Q, phi)
    rows = min(3, n_max) + 1
    alpha = np.zeros((n_max + 1, grid.M + 1), dtype=phi.dev_ratio.dtype)
    alpha[:rows] = seed[:rows]
    flags = np.zeros((n_max + 1, grid.M + 1), dtype=bool)
    # seed rows are closed forms: their floor is ordinary round-off
    floor = np.zeros((n_max + 1, grid.M + 1), dtype=np.longdouble)
    eps = _pipeline_eps(phi.dev_ratio.real.dtype)
    for n in range(rows):
        floor[n] = (eps / NOISE_FLOOR_EPS_FACTOR) * 8.0 * np.abs(alpha[n])
    for n in range(4, n_max + 1):
        alpha[n] = alpha_recurrence(beta, alpha, n)
        # worst-case floor propagation, for the error surrogate only: the
        # actual recurrence error largely cancels and sits far below this
        floor[n, 1:] = (2 * n - 1) * (2 * n + 1) * (
            beta.noise_floor[n - 2, 1:] / x2
            + 2.0 * floor[n - 2, 1:] / ((2 * n - 5) * (2 * n - 1))
            + floor[n - 4, 1:] / ((2 * n - 7) * (2 * n - 5))
        )
        flags[n] = beta.flags[n - 2]
    _suppress_noise_tail(alpha)
    return AlphaTable(grid, n_max, alpha, flags, floor)


def _suppress_noise_tail(alpha: np.ndarray):
    """Zero rows past the per-node noise onset, in place.

    For the smooth potentials in scope the true magnitudes |alpha_n(x)|
    decay with n while recurrence noise grows by a factor of a few per
    row, so a sustained climb back above the running minimum of the
    (parity-smoothed) magnitude sequence marks where information ends.
    """
    mags = np.abs(alpha)
    run_min = np.full(alpha.shape[1], np.inf, dtype=np.longdouble)
    onset = np.zeros(alpha.shape[1], dtype=bool)
    for n in range(4, alpha.shape[0]):
        pair = np.maximum(mags[n], mags[n - 1])
        onset |= pair > NOISE_ONSET_RISE * run_min
        alpha[n][onset] = 0.0
        keep = ~onset & (pair > 0)
        run_min[keep] = np.minimum(run_min[keep], pair[keep])


def accuracy_indicators(
    q: SampledFunction,
    Q: SampledFunction,
    Q2: SampledFunction,
    alpha: AlphaTable,
    n_trunc: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The eps1/eps2 diagnostics for a truncation at n_trunc.

    The kernel's diagonal values have closed forms,

        K(x,  x) twice-differentiated: (q' - qQ - int q^2 + Q^3/6)/8,
        K(x, -x) twice-differentiated: (q'(0) + q(0) Q)/8,

    while the Fourier-Legendre expansion gives (1/x) sum alpha_n and
    (1/x) sum (-1)^n alpha_n for the same quantities.  eps1/eps2 are the
    absolute differences, per node; they measure how well the truncated
    expansion resolves the kernel.  q' comes from 6th-order finite
    differences, so tabulated potentials work unchanged.
    """
    if n_trunc > alpha.n_max:
        raise ValueError(
            f"truncation {n_trunc} exceeds alpha table n_max={alpha.n_max}"
        )
    grid = q.grid
    qp = derivative(q).values
    q0 = q.values[0]
    diag_same = (
        qp - q.values * Q.values - Q2.values + Q.values**3 / 6.0
    ) / 8.0
    diag_opp = (qp[0] + q0 * Q.values) / 8.0

    x = grid.nodes[1:].astype(alpha.alpha.dtype)
    ssum = np.zeros(x.size, dtype=alpha.alpha.dtype)
    asum = np.zeros_like(ssum)
    for n in range(n_trunc + 1):
        ssum = ssum + alpha.alpha[n, 1:]
        asum = asum + (-1) ** n * alpha.alpha[n, 1:]
    eps1 = np.zeros(grid.M + 1, dtype=np.longdouble)
    eps2 = np.zeros_like(eps1)
    eps1[1:] = np.abs(diag_same[1:] - ssum / x)
    eps2[1:] = np.abs(diag_opp[1:] - asum / x)
    return eps1, eps2
