"""Series coefficients for the two solution representations.

Computes, on the grid:

* Legendre polynomial coefficients l[n][k] in closed form;
* beta_n, the coefficients of the plain Bessel-series representation,
  from the formal powers via the explicit Legendre-sum formula;
* alpha_n, the Fourier-Legendre coefficients of the twice-differentiated
  transmutation kernel, all in ``build_alpha_table``: rows 0..3 from
  closed-form seeds, rows >= 4 by the recurrence that reuses beta, beside
  the propagation of the noise floors; ``alpha_tail`` resumes that
  recurrence for the rows past a table's end;
* the eps1/eps2 accuracy indicators comparing the alpha sums against the
  kernel's closed boundary values.

All formulas are evaluated through the monomial deviations
(phi_k - x^k)/x^k, so every table is exactly zero for q = 0.  The
Legendre sums still cancel violently as n grows (the coefficients grow
like 2^n while the sums stay bounded), so badly cancelling entries are
flagged and entries below a noise floor of NOISE_FLOOR_EPS_FACTOR eps
times the largest summand are zeroed.  Each sum is a plain one, one
``np.dot`` per row over ascending k: a recursive sum of at most 36 terms
is off by at most about 35 * 36 eps ~ 1260 eps of its largest term
(Higham, SIAM J. Sci. Comput. 14, 1993), below that floor, so
compensation would buy no usable digit.  Orders are capped at 60.

Precision.  The tables are computed in the dtype of the formal powers,
extended (``numpy.longdouble``) where the platform has it, in the two
stages measured to need it on the benchmark (``perfbench``): the beta
Legendre sums (float64 summands move the ``build_sweep`` worst case from
4.75 to 3.6 digits) and the alpha recurrence (in float64 the dual-route
check of acceptance criterion 7 reads 2.7e-6 against its 1e-7).  What only
describes the tables is float64: the cancellation flags and the
peak/|row| test behind them, both noise floors, and the magnitudes that
the noise-tail test compares.

Every formula is evaluated at every node x > 0.  At the origin each is a
removable 0/0 form whose limit is exactly 0, and node 0 stores that limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LimitError
from .formal_powers import FormalPowersTable
from .grid import Grid, derivative, indefinite_integral

__all__ = [
    "BetaTable",
    "AlphaTable",
    "legendre_coeffs",
    "beta_coeffs",
    "build_alpha_table",
    "alpha_tail",
    "accuracy_indicators",
]

#: cap on the solution truncation N: beyond it the Legendre sums carry no
#: trustworthy digits in double precision
TRUNCATION_CAP = 60
#: alpha rows past N+2 that the truncation-error surrogate reads
EXTRA_ROWS = 8
#: cap on coefficient table rows: alpha runs to N + 2 + EXTRA_ROWS
ORDER_CAP = TRUNCATION_CAP + 2 + EXTRA_ROWS
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
class BetaTable:
    """beta[n][j] = beta_n(x_j), n = 0..n_max.

    ``flags`` marks entries whose Legendre sum cancelled by more than
    CANCEL_FLAG_RATIO (diagnostic only).  ``noise_floor`` (float64) is the
    absolute resolution limit of each entry, NOISE_FLOOR_EPS_FACTOR eps of
    the sum's dtype times its largest scaled summand; values that came out
    below their floor are stored as zero, the best available estimate.
    """

    grid: Grid
    n_max: int
    beta: np.ndarray = field(repr=False)
    flags: np.ndarray = field(repr=False)
    noise_floor: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class AlphaTable:
    """alpha[n][j] = alpha_n(x_j), n = 0..n_max.

    ``noise_floor`` (float64) propagates the beta floors through the
    recurrence, for the error surrogate.
    """

    grid: Grid
    n_max: int
    alpha: np.ndarray = field(repr=False)
    noise_floor: np.ndarray = field(repr=False)
    #: the recurrence past n_max, resumed by ``alpha_tail``
    _recurrence: "_AlphaRecurrence | None" = field(
        default=None, repr=False, compare=False)


#: the Legendre table of the largest order asked for so far (read-only);
#: every smaller table is its leading corner
_legendre_table = np.zeros((0, 0), dtype=np.longdouble)


def legendre_coeffs(n_max: int) -> np.ndarray:
    """l[n][k], the coefficient of x^k in the Legendre polynomial P_n, for
    n, k = 0 .. n_max, in closed form.

    l[n][n-2m] = (-1)^m C(n, m) C(2n-2m, n) / 2^n (DLMF 18.5.8): an exact
    integer over a power of two, so each entry is rounded once.  The
    carriers downstream multiply these by ~2^n-sized weights, so each entry
    being correctly rounded (instead of carrying n accumulated roundings)
    is worth real digits at high order.

    An entry does not depend on n_max, so one table serves every order:
    it is rebuilt only when a larger n_max is asked for, and each call
    returns a read-only view of its leading corner.
    """
    global _legendre_table
    if n_max > ORDER_CAP:
        raise LimitError(f"Legendre order {n_max} exceeds cap {ORDER_CAP}")
    if n_max >= len(_legendre_table):
        l = np.zeros((n_max + 1, n_max + 1), dtype=np.longdouble)
        for n in range(n_max + 1):
            scale = np.longdouble(2**n)
            for m in range(n // 2 + 1):
                c = math.comb(n, m) * math.comb(2 * n - 2 * m, n)
                l[n, n - 2 * m] = np.longdouble((-1) ** m * c) / scale
        l.flags.writeable = False
        _legendre_table = l
    return _legendre_table[: n_max + 1, : n_max + 1]


def _pipeline_eps(dtype) -> float:
    return float(np.finfo(dtype).eps) * NOISE_FLOOR_EPS_FACTOR


def _abs_into(x: np.ndarray, out: np.ndarray):
    """|x| rounded to float64, written into ``out``.

    A real table is rounded first and its sign dropped after: rounding is
    symmetric in sign, so the bits are the same, and the plain cast skips
    the buffered casting loop of a ufunc (5x slower on a 36 x 2750
    longdouble table).  A complex table keeps its modulus in its own
    precision, since hypot of the rounded parts can differ in the last bit.
    """
    if np.iscomplexobj(x):
        np.abs(x, out=out, casting="unsafe")
    else:
        out[...] = x
        np.abs(out, out=out)


def _beta_rows(dev_ratio: np.ndarray, l: np.ndarray, first: int):
    """beta, flags and floors of the rows first .. len(l)-1 from the
    formal powers' deviation ratios (see ``beta_coeffs``), as arrays whose
    row 0 is row ``first``."""
    n_max = len(l) - 1
    eps = _pipeline_eps(dev_ratio.real.dtype)

    dev = dev_ratio[: n_max + 1, 1:]
    shape = (n_max + 1 - first, dev_ratio.shape[1])
    beta = np.zeros(shape, dtype=dev_ratio.dtype)
    flags = np.zeros(shape, dtype=bool)
    floor = np.zeros(shape)
    # the largest summand and |row| only set the floor and the flag:
    # float64 will do
    absdev = np.empty(dev.shape)
    _abs_into(dev, absdev)
    absl = np.abs(l).astype(float)
    absrow = np.empty(dev.shape[1])
    for i, n in enumerate(range(first, n_max + 1)):
        # l[n][k] = 0 when k > n or n - k is odd
        ks = slice(n % 2, n + 1, 2)
        row = beta[i, 1:]
        # not out=row: np.dot takes only an output of its result dtype,
        # and complex128 deviations give a clongdouble sum, rounded here
        row[...] = np.dot(l[n, ks], dev[ks])
        peak = np.max(absl[n, ks, None] * absdev[ks], axis=0)
        w = 0.5 * (2 * n + 1)
        _abs_into(row, absrow)
        flags[i, 1:] = peak > CANCEL_FLAG_RATIO * absrow
        # a float64 product, so the floor is exact in either dtype and
        # the test below compares the extended |row| with it exactly
        floor[i, 1:] = eps * w * peak
        row *= w
        row[np.abs(row) < floor[i, 1:]] = 0.0
    return beta, flags, floor


def beta_coeffs(phi: FormalPowersTable, l: np.ndarray) -> BetaTable:
    """Coefficients of the plain Bessel-series representation, one row per
    row of the Legendre table ``l``.

    beta_n(x) = (2n+1)/2 * (sum_k l[n][k] phi_k(x)/x^k - 1): since the
    Legendre coefficients of every P_n sum to 1, the subtracted 1 cancels
    against the monomial parts of the ratios, leaving the sum of
    l[n][k] (phi_k - x^k)/x^k.  Row by row, the sum over the nonzero
    l[n][k] (k <= n, of the parity of n) is one ``np.dot`` in the pipeline
    dtype, written into the output, followed by the row's flags, floors
    and scaling, so no temporary is as large as the table.  Node 0 keeps
    the limit 0.  A row reads only the formal powers up to its order, so
    it has the same bits in a table of any extent.
    """
    n_max = len(l) - 1
    if phi.k_max < n_max:
        raise ValueError(f"need phi up to k={n_max}, table has {phi.k_max}")
    return BetaTable(phi.grid, n_max, *_beta_rows(phi.dev_ratio, l, 0))


class _AlphaRecurrence:
    """The alpha rows of ``build_alpha_table`` in order, resumable: between
    calls of ``rows`` it holds what the next rows read.

    That is the last four rows as the recurrence made them (before the
    noise-tail cut, and until row 4 the closed-form seeds), their floors
    and the last one's magnitudes, and the cut's per-node onset and
    running minimum.  Arrays cover the nodes x > 0.
    """

    def __init__(self, q: np.ndarray, Q: np.ndarray, phi: FormalPowersTable):
        self.dtype = phi.dev_ratio.dtype
        x = phi.grid.nodes[1:].astype(self.dtype)
        Qx = Q[1:]
        core = q[1:] / 4.0 - Qx * Qx / 8.0
        qplus = core + q[0] / 4.0
        qminus = core - q[0] / 4.0
        dev = phi.dev_ratio[:2, 1:]
        seeds = (
            0.5 * qminus,
            1.5 * (qplus - Qx / (2.0 * x)),
            2.5 * (qminus + 3.0 * dev[0] / (x * x) - 1.5 * Qx / x),
            3.5 * (qplus + 15.0 * dev[1] / (x * x) - 3.0 * Qx / x),
        )
        self.last = [np.asarray(seed, dtype=self.dtype) for seed in seeds]
        # seed rows are closed forms: their floor is ordinary round-off
        eps = _pipeline_eps(phi.dev_ratio.real.dtype)
        self.floors = [_magnitude(row) * ((eps / NOISE_FLOOR_EPS_FACTOR) * 8.0)
                       for row in self.last]
        self.x2 = x**2
        self.x2_floor = phi.grid.nodes[1:].astype(float) ** 2
        self.n = 0
        self.mag = None
        self.run_min = np.full(x.size, np.inf)
        self.onset = np.zeros(x.size, dtype=bool)

    def rows(self, beta: np.ndarray, beta_floor: np.ndarray, first: int,
             stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows self.n .. stop-1 and their floors.  Row n >= 4 reads
        beta_{n-2} and its floor from row n-2-first of ``beta`` and
        ``beta_floor``.

        The noise-tail cut: for the smooth potentials in scope the true
        magnitudes |alpha_n(x)| decay with n while recurrence noise grows
        by a factor of a few per row, so a sustained climb back above the
        running minimum of the (parity-smoothed) magnitude sequence marks
        where information ends.  From there on a node's stored rows are
        zero; the recurrence reads the rows as it made them.
        """
        if stop - 1 > ORDER_CAP:
            raise LimitError(f"alpha order {stop - 1} exceeds cap {ORDER_CAP}")
        alpha = np.zeros((stop - self.n, self.x2.size + 1), dtype=self.dtype)
        floor = np.zeros(alpha.shape)
        for i, n in enumerate(range(self.n, stop)):
            if n < 4:
                row, row_floor = self.last[n], self.floors[n]
            else:
                a, f = self.last, self.floors
                row = (2 * n - 1) * (2 * n + 1) * (
                    beta[n - 2 - first, 1:] / self.x2
                    + 2.0 * a[-2] / ((2 * n - 5) * (2 * n - 1))
                    - a[-4] / ((2 * n - 7) * (2 * n - 5))
                )
                # worst-case floor propagation, for the error surrogate
                # only: the actual recurrence error largely cancels and
                # sits far below this
                row_floor = (2 * n - 1) * (2 * n + 1) * (
                    beta_floor[n - 2 - first, 1:] / self.x2_floor
                    + 2.0 * f[-2] / ((2 * n - 5) * (2 * n - 1))
                    + f[-4] / ((2 * n - 7) * (2 * n - 5))
                )
                self.last, self.floors = a[1:] + [row], f[1:] + [row_floor]
            alpha[i, 1:], floor[i, 1:] = row, row_floor
            mag = _magnitude(row)
            if n >= 4:
                pair = np.maximum(mag, self.mag)
                self.onset |= pair > NOISE_ONSET_RISE * self.run_min
                alpha[i, 1:][self.onset] = 0.0
                # past its onset a node stays zeroed, whatever its minimum
                np.minimum(self.run_min, pair, out=self.run_min,
                           where=pair > 0)
            self.mag = mag
        self.n = stop
        return alpha, floor


def _magnitude(row: np.ndarray) -> np.ndarray:
    out = np.empty(row.shape)
    _abs_into(row, out)
    return out


def build_alpha_table(
    q: np.ndarray,
    Q: np.ndarray,
    phi: FormalPowersTable,
    beta: BetaTable,
    n_max: int,
) -> AlphaTable:
    """Alpha rows 0..n_max.  Rows 0..3 are closed forms: with
    q_+- = q/4 - Q^2/8 +- q(0)/4,

        alpha_0 = q_-/2
        alpha_1 = 3/2 (q_+ - Q/(2x))
        alpha_2 = 5/2 (q_- + 3(phi_0 - 1)/x^2 - 3Q/(2x))
        alpha_3 = 7/2 (q_+ + 15(phi_1 - x)/x^3 - 3Q/x),

    all tending to 0 as x -> 0, the limit node 0 keeps.  For n >= 4,

    alpha_n = (2n-1)(2n+1) ( beta_{n-2}/x^2
                             + 2 alpha_{n-2}/((2n-5)(2n-1))
                             - alpha_{n-4}/((2n-7)(2n-5)) ).

    Stored rows are zero past each node's noise onset (see
    ``_AlphaRecurrence.rows``).  A row reads only lower rows, so it has the
    same bits in a table of any extent; ``alpha_tail`` continues the table.
    """
    recurrence = _AlphaRecurrence(q, Q, phi)
    rows = recurrence.rows(beta.beta, beta.noise_floor, 0, n_max + 1)
    return AlphaTable(phi.grid, n_max, *rows, _recurrence=recurrence)


def alpha_tail(
    alpha: AlphaTable, dev_ratio: np.ndarray, l: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``alpha`` past its n_max, to len(l)+1, and their floors.

    Beta rows n_max-1 .. len(l)-1 come from the formal powers' deviation
    ratios ``dev_ratio`` (rows 0..len(l)-1) as in ``beta_coeffs``; then the
    recurrence resumes where ``build_alpha_table`` stopped it.  Every row
    has the bits of a table built to len(l)+1.  Once only: ``alpha`` drops
    its recurrence state.
    """
    if alpha._recurrence is None:
        raise ValueError("this table has no recurrence to resume")
    first = alpha.n_max - 1
    beta, _, beta_floor = _beta_rows(dev_ratio, l, first)
    rows = alpha._recurrence.rows(beta, beta_floor, first, len(l) + 2)
    object.__setattr__(alpha, "_recurrence", None)
    return rows


def accuracy_indicators(
    q: np.ndarray, Q: np.ndarray, alpha: AlphaTable, n_trunc: int
) -> tuple[np.ndarray, np.ndarray]:
    """The eps1/eps2 diagnostics for a truncation at n_trunc.

    The kernel's diagonal values have closed forms,

        K(x,  x) twice-differentiated: (q' - qQ - int q^2 + Q^3/6)/8,
        K(x, -x) twice-differentiated: (q'(0) + q(0) Q)/8,

    while the Fourier-Legendre expansion gives (1/x) sum alpha_n and
    (1/x) sum (-1)^n alpha_n for the same quantities.  eps1/eps2 are the
    absolute differences, per node; they measure how well the truncated
    expansion resolves the kernel.  q and Q are the node values of the
    potential and of its running integral; q' comes from 6th-order finite
    differences and int q^2 from the grid's indefinite integral, so
    tabulated potentials work unchanged.
    """
    if n_trunc > alpha.n_max:
        raise ValueError(
            f"truncation {n_trunc} exceeds alpha table n_max={alpha.n_max}"
        )
    grid = alpha.grid
    qp = derivative(grid, q)
    Q2 = indefinite_integral(grid, q * q)
    diag_same = (qp - q * Q - Q2 + Q**3 / 6.0) / 8.0
    diag_opp = (qp[0] + q[0] * Q) / 8.0

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
