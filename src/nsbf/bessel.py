"""Stable evaluation of spherical Bessel functions j_n(z), n = 0..N, for
real and complex arguments.

There are three branches and one rule picks among them for every value:
below |z| = 1 the power series (DLMF 10.53.1); above the top order the
upward three-term recurrence from closed-form j_0 and j_1, where it is
stable; and in between Miller's downward recurrence from an arbitrary
seed, normalized through j_0 or j_1 (DLMF 10.51; W. Gautschi, SIAM Review
9, 1967).  Every Miller run starts at ``_miller_start(top, |z|)``, the
lowest order from which the Debye estimate of its error at the top order
wanted is below e^-40; from |z| = 1 up it never nears overflow.

``spherical_j_sequence`` runs its branch on Python floats or complexes:
``_series``, ``_upward``, or Miller's run.  ``spherical_j_sum`` runs the
same branches for sum_n c_n j_n(z): it adds the series' values in order,
and in the recurrences each term as they reach it.
``spherical_j_table`` serves a 1-D array of real arguments with the
sequence's rule and top order: ``_upward_table`` runs over every column,
one division for the whole (2n+1)/z table and two ufunc calls per order,
and the columns at or below the top order are then overwritten by the
series or by Miller's run.  ``_miller_run`` is the one Miller kernel of
both, in Python arithmetic from its own start order; ``_normalized`` then
scales the unnormalized lists of a sequence, or of all the table's
columns at once, by one product with their factors.

Every value of the sequence and of the table is rounded by the same IEEE
operations, in the same order, as the straightforward series and
recurrence ``(2*n + 1)/z * j_n - j_{n-1}`` that store each order as they
go (``tests/crosschecks.py`` keeps that form): a float 2n+1 divides as the
int does, storing a Python number in the output is exact whether it is
done per order or once, a float64 ufunc element rounds as the Python float
operation does, and no element of a ufunc result depends on the other
columns; so the tests compare with ``np.array_equal``.  The sum takes the
same steps, so a unit coefficient vector picks out the sequence's value
(a complex Miller run aside: the sequence scales it by numpy's complex
product, the sum by Python's).  It adds in its own order and scales a
Miller sum once, so it rounds otherwise, and is held to the rounding bound
of the sum instead.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

from .errors import LimitError

__all__ = ["spherical_j_sequence", "spherical_j_table", "spherical_j_sum"]

#: highest supported order
N_CAP = 120

#: |Im z| guard: sinh-type growth of j_n overflows float64 beyond this
IM_CAP = 700.0

#: |z| below which every order comes from the power series: there each
#: term of its series is at most a sixth of the one before, and from
#: |z| = 1 up Miller's unnormalized run stays far from overflow (below
#: 5e215 at every top order up to N_CAP), so it never needs rescaling
_SERIES_BELOW = 1.0

#: 2n+1 for every order a recurrence reaches: a Miller run starts at most
#: at ``_miller_start(N_CAP, N_CAP)`` = 158
_ODD = [2.0 * n + 1.0 for n in range(159)]
_ODD_COLUMN = np.array(_ODD)[:, None]
#: (2n+1)(2n+3), the divisor of the series' downward step at order n
_ODD_PAIRS = [f * g for f, g in zip(_ODD, _ODD[1:])]


def _g_series(n, w):
    """g_n = 0F1(; n + 3/2; -z^2/4) at w = -z^2/2, |z| < 1: the sum of
    w^k/(k! (2n+3)(2n+5) .. (2n+2k+1)) until a term no longer moves it."""
    g, t, k = 0.0, 1.0, 0
    while (total := g + t) != g:
        g, k = total, k + 1
        t = t * w / (k * (2 * (n + k) + 1))
    return g


def _series(z, top):
    """j_0(z) .. j_top(z) at a scalar |z| < 1 as a list.

    j_n = z^n/(2n+1)!! g_n (DLMF 10.53.1): g_top and g_{top+1} come from
    their series and the lower g_n from g_{n-1} = g_n - z^2 g_{n+1}/((2n+1)
    (2n+3)), the three-term recurrence of j_n in these terms.  Every g_n is
    within 0.18 of 1 and the step's correction under a tenth of it, so
    nothing cancels or overflows; z^n/(2n+1)!! is multiplied up an order at
    a time, and where it underflows so does j_n.
    """
    zz = z * z
    w = -0.5 * zz
    above, g = _g_series(top + 1, w), _g_series(top, w)
    low = [g]
    store = low.append
    for d in _ODD_PAIRS[top:0:-1]:
        above, g = g, g - zz * above / d
        store(g)
    low.reverse()  # g_0 .. g_top
    power = 1.0
    return [g] + [(power := power * z / f) * gn
                  for f, gn in zip(_ODD[1 : top + 1], low[1:])]


def _j01(z):
    """Closed-form j_0(z), j_1(z) for a scalar z or an array of real z; the
    form for j_1 cancels two O(1/z) terms, so it serves |z| >= 1 only."""
    trig = (np if isinstance(z, np.ndarray)
            else cmath if isinstance(z, complex) else math)
    s, c = trig.sin(z), trig.cos(z)
    return s / z, s / (z * z) - c / z


def _upward(z, top):
    """Upward recurrence from j_0, j_1 at a scalar z, as the list j_0 ..
    j_top: stable while the order stays below |z|."""
    jm, jc = _j01(z)
    values = [jm]
    store = values.append
    for f in _ODD[1 : top + 1]:
        store(jc)
        jm, jc = jc, f / z * jc - jm
    return values


def _upward_table(z, out):
    """``_upward`` on every column of an array of real z at once."""
    out[:2] = _j01(z)[: len(out)]  # a table of order 0 has no row 1
    ratio = _ODD_COLUMN[1 : len(out) - 1] / z
    for n in range(1, len(out) - 1):
        np.multiply(ratio[n - 1], out[n], out=out[n + 1])
        np.subtract(out[n + 1], out[n - 1], out=out[n + 1])
    return out


def _debye_exponent(n: int, a: float) -> float:
    """F(n) = nu acosh(nu/a) - sqrt(nu^2 - a^2), nu = n + 1/2 > a: j_n(a)
    decays and y_n(a) grows like e^{-F(n)} and e^{F(n)} (DLMF 10.19.6)."""
    nu = n + 0.5
    return nu * math.acosh(nu / a) - math.sqrt(nu * nu - a * a)


_STARTS: dict = {}


def _miller_start(top: int, a: float) -> int:
    """Order from which Miller's run at |z| = a, 1 <= a <= top, starts.

    Started at order n with j_{n+1} = 0, the run at order ``top`` is off
    by about e^{-2 (F(n) - F(top))} relative (see ``_debye_exponent``;
    W. Gautschi, SIAM Review 9, 1967): n is the smallest order where that
    is below e^-40, read at the next integer up from a, which only
    lengthens the run.  The row of one ``top`` is made on first use.
    """
    row = _STARTS.get(top)
    if row is None:
        row, n = [], top + 1
        for k in range(1, top + 1):
            floor = _debye_exponent(top, float(k)) + 20.0
            # F(n) - F(top) falls as a grows, so n never steps back
            while _debye_exponent(n, float(k)) < floor:
                n += 1
            row.append(n)
        _STARTS[top] = row
    return row[math.ceil(a) - 1]


def _miller_run(z, top, start):
    """Miller's run at a scalar z from order ``start``: the unnormalized
    j_{top-1} .. j_0 as a list, the factor that normalizes them, and the
    closed-form j_0, j_1."""
    above, cur = 0.0, 1e-30
    values = []
    store = values.append
    for f in _ODD[start:top:-1]:
        above, cur = cur, f / z * cur - above
    for f in _ODD[top:0:-1]:
        above, cur = cur, f / z * cur - above
        store(cur)
    j0, j1 = _j01(z)
    # cur / above now hold the unnormalized order-0 / order-1 values;
    # j_0 and j_1 have no common zeros
    return values, j0 / cur if abs(j0) >= abs(j1) else j1 / above, j0, j1


def _normalized(runs):
    """Runs of ``_miller_run`` at one top order as the columns j_0 ..
    j_{top-1}, each times its own factor."""
    values, factor, j0, j1 = zip(*runs)
    block = np.array(values).T[::-1] * np.array(factor)
    # the recurrence cannot resolve j_0, j_1 near their zeros; the closed
    # forms can, so they always win
    block[0], block[1] = j0, j1
    return block


def _python(z):
    """A numpy scalar as the Python float or complex of its value; any other
    z as it is, so a Python number keeps its bits."""
    if isinstance(z, np.generic):
        return complex(z) if isinstance(z, np.complexfloating) else float(z)
    return z


def _scalar(z):
    """A Python scalar z as a float, or as a complex off the real axis;
    LimitError where z is not finite or past the |Im z| guard."""
    if isinstance(z, complex) and z.imag != 0.0:
        if abs(z.imag) > IM_CAP:
            raise LimitError(
                f"|Im z| = {abs(z.imag):.3g} exceeds the overflow guard {IM_CAP}"
            )
        if cmath.isfinite(z):
            return z
    elif math.isfinite(z := float(z.real)):
        return z
    raise LimitError(f"the Bessel argument z = {z} is not finite")


def _check_order(N: int) -> None:
    if N < 0:
        raise LimitError(f"order must be non-negative, got {N}")
    if N > N_CAP:
        raise LimitError(f"order {N} exceeds the supported cap {N_CAP}")


def spherical_j_sequence(N: int, z: complex) -> np.ndarray:
    """Values j_0(z) .. j_N(z) as a length N+1 array.

    Parameters
    ----------
    N : int
        Highest order, at most 120.
    z : real or complex
        Argument; |Im z| must not exceed 700.  A numpy scalar is read as
        the Python float or complex of its value.

    Returns
    -------
    np.ndarray
        float64 for real z, complex128 for complex z.

    Notes
    -----
    For |z| < 1 the power series (see ``_series``) gives every order.
    For |z| > N the upward recurrence from closed-form j_0, j_1 is used
    directly.  Otherwise the sequence comes from downward (Miller)
    recurrence started at order ``_miller_start(N, |z|)`` (the Debye
    bound: its error at order N is below e^-40) with an arbitrary seed and
    normalized through the closed-form j_0 or j_1.  A complex z on the
    real axis takes the real branches.
    """
    _check_order(N)
    z = _scalar(_python(z))
    az = abs(z)
    if _SERIES_BELOW <= az <= N:
        return _normalized([_miller_run(z, N + 1, _miller_start(N, az))])[:, 0]
    out = np.zeros(N + 1, dtype=complex if isinstance(z, complex) else float)
    out[:] = _series(z, N) if az < _SERIES_BELOW else _upward(z, N)
    return out


def _upward_sum(coeffs, z):
    """``spherical_j_sum`` by the upward recurrence, summed as it recurs."""
    jm, jc = _j01(z)
    if len(coeffs) == 1:
        return coeffs[0] * jm
    acc = coeffs[0] * jm + coeffs[1] * jc
    for c, f in zip(coeffs[2:], _ODD[1 : len(coeffs) - 1]):
        jm, jc = jc, f / z * jc - jm
        acc += c * jc
    return acc


def _miller_sum(coeffs, z, start):
    """``spherical_j_sum`` by Miller's run from order ``start``: the
    unnormalized orders N..2 summed as they come, times the factor that
    normalizes them, plus the closed-form j_0 and j_1 terms."""
    N = len(coeffs) - 1
    above, cur = 0.0, 1e-30
    acc = 0.0
    for f in _ODD[start:N:-1]:
        above, cur = cur, f / z * cur - above
    for c, f in zip(coeffs[N:1:-1], _ODD[N:1:-1]):
        acc += c * cur
        above, cur = cur, f / z * cur - above
    below = 3.0 / z * cur - above
    # cur and below now hold the unnormalized j_1 and j_0
    j0, j1 = _j01(z)
    factor = j0 / below if abs(j0) >= abs(j1) else j1 / cur
    return acc * factor + coeffs[0] * j0 + coeffs[1] * j1


def spherical_j_sum(coeffs: list, z) -> complex:
    """sum_n coeffs[n] j_n(z) over n = 0..N, N = len(coeffs) - 1.

    Parameters
    ----------
    coeffs : list of Python floats or complexes
        At most 121 of them.
    z : Python float or complex
        |Im z| must not exceed 700.

    Returns
    -------
    The sum as a Python number; not finite where a term or the sum leaves
    float64 (no exception, and no numpy warning).

    Notes
    -----
    The branches of ``spherical_j_sequence``, without an array: the
    series' values are added in order, the upward recurrence adds each
    term as it recurs, and Miller's run (from the same start order) adds
    the unnormalized orders N..2, scales that sum once and adds the
    closed-form j_0 and j_1 terms.  Each order steps as in the sequence,
    so unit coefficients e_k pick out the sequence's j_k (a complex
    Miller run aside; see the module docstring).
    """
    N = len(coeffs) - 1
    _check_order(N)
    z = _scalar(z)
    az = abs(z)
    if az < _SERIES_BELOW:
        return sum(map(operator.mul, coeffs, _series(z, N)))
    if az > N:
        return _upward_sum(coeffs, z)
    return _miller_sum(coeffs, z, _miller_start(N, az))


def spherical_j_table(N: int, z: np.ndarray) -> np.ndarray:
    """Values j_n(z_k) for n = 0..N, one column per real argument.

    Parameters
    ----------
    N : int
        Highest order, at most 120.
    z : 1-D array of real z > 0
        LimitError where one is not finite.

    Returns
    -------
    np.ndarray
        float64, shape (N + 1, len(z)); column k is
        ``spherical_j_sequence(N, z[k])``, bit for bit.

    Notes
    -----
    The branches of ``spherical_j_sequence``, chosen per column by its
    rule: the series for z < 1, upward recurrence where z > N, and
    otherwise Miller's downward recurrence run on each column alone from
    its own start order ``_miller_start(N, z)`` and normalized by its own
    factor, so no column depends on the others in the batch.  The upward
    recurrence runs over every column first; the others are overwritten.
    """
    _check_order(N)
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        _scalar(float(z[~np.isfinite(z)][0]))  # raises the LimitError
    if z.ndim != 1 or not np.all(z > 0):
        raise ValueError("spherical_j_table needs a 1-D array of z > 0")
    out = np.empty((N + 1, z.size))
    # the unstable columns may overflow; they are overwritten below
    with np.errstate(all="ignore"):
        _upward_table(z, out)
    small = np.flatnonzero(z < _SERIES_BELOW)
    if small.size:
        out[:, small] = np.array([_series(zk, N)
                                  for zk in z[small].tolist()]).T
    miller = np.flatnonzero((z >= _SERIES_BELOW) & (z <= N))
    if miller.size:
        out[:, miller] = _normalized([
            _miller_run(zk, N + 1, _miller_start(N, zk))
            for zk in z[miller].tolist()
        ])
    return out
