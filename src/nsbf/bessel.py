"""Stable evaluation of spherical Bessel functions j_n(z), n = 0..N, for
real and complex arguments.

There are four branches: the power series for tiny arguments; closed-form
j_0 and j_1, by their own series below |z| = 0.1; upward three-term
recurrence where it is stable (|z| above the top order); and otherwise
Miller's downward recurrence from an arbitrary seed, normalized through
j_0 or j_1 (DLMF 10.51; W. Gautschi, SIAM Review 9, 1967).  Every Miller
run starts at ``_miller_start(top, |z|)``, the lowest order from which the
Debye estimate of its error at the top order wanted is below e^-40.

``spherical_j_sequence`` picks one branch for its Python scalar and runs
it on Python floats or complexes: ``_upward``, or Miller's
``_miller_renormalized``, which rescales only a run that passes the
limit.  It serves the sum's cold branches.  ``spherical_j_sum`` runs the
same branches for sum_n c_n j_n(z) and keeps no value: it adds each term
as the recurrence reaches it.  ``spherical_j_table`` serves a 1-D array
of real arguments: ``_upward_table`` runs over every column, one division
for the whole (2n+1)/z table and two ufunc calls per order, and the
columns at or below the top order are then overwritten by the tiny series
or by Miller's run.  Each column's run (``_miller_run``) starts from its
own order in Python arithmetic; their unnormalized lists are then
normalized together, by one product with the row of their factors, and
written in one pass (a run that could overflow renormalizes and writes
its own column).

Every value of the sequence and of the table is rounded by the same IEEE
operations, in the same order, as the straightforward recurrence
``(2*n + 1)/z * j_n - j_{n-1}`` that stores each order as it goes
(``tests/crosschecks.py`` keeps that form): a float 2n+1 divides as the
int does, storing a Python number in the output is exact whether it is
done per order or once, a float64 ufunc element rounds as the Python float
operation does, and no element of a ufunc result depends on the other
columns; so the tests compare with ``np.array_equal``.  The sum rounds
otherwise (its order of addition, and 1/z for a complex z), and is held
to the rounding bound of the sum instead.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import LimitError

__all__ = ["spherical_j_sequence", "spherical_j_table", "spherical_j_sum"]

#: highest supported order
N_CAP = 120

#: |Im z| guard: sinh-type growth of j_n overflows float64 beyond this
IM_CAP = 700.0

_TINY_Z = 1e-8
_RENORM_LIMIT = 1e250

#: 2n+1 for every order a recurrence reaches: a Miller run starts at most
#: at ``_miller_start(N_CAP + 1, N_CAP)`` = 158, the table's top order at
#: |z| = N_CAP
_ODD = [2.0 * n + 1.0 for n in range(160)]
_ODD_COLUMN = np.array(_ODD)[:, None]


def _tiny_series(z, out):
    """out[n] = z^n/(2n+1)!! (1 - z^2/(2(2n+3))), for |z| < 1e-8."""
    term = 1.0
    for n in range(len(out)):
        out[n] = term * (1.0 - z * z / (2.0 * (2 * n + 3)))
        term = term * z / (2 * n + 3)
    return out


def _j01_series(z):
    w = -0.5 * z * z
    j0 = t0 = 1.0
    j1 = t1 = 1.0 / 3.0
    # for |z| < 0.1 the terms past k = 6 are below 1e-26 of the leading one
    for k in range(1, 7):
        t0 = t0 * w / (k * (2 * k + 1))
        t1 = t1 * w / (k * (2 * k + 3))
        j0 = j0 + t0
        j1 = j1 + t1
    return j0, z * j1


def _j01(z):
    """j_0(z), j_1(z) for a scalar z != 0 or an array of real z > 0.

    The closed form for j_1 cancels two O(1/z) terms; the power series
    keeps full relative accuracy at |z| < 0.1.
    """
    array = isinstance(z, np.ndarray)
    if not array and abs(z) < 0.1:
        return _j01_series(z)
    trig = np if array else cmath if isinstance(z, complex) else math
    s, c = trig.sin(z), trig.cos(z)
    j0, j1 = s / z, s / (z * z) - c / z
    if array and (small := z < 0.1).any():
        j0[small], j1[small] = _j01_series(z[small])
    return j0, j1


def _upward(z, out):
    """Upward recurrence from j_0, j_1 at a scalar z: stable while the
    order stays below |z|."""
    jm, jc = _j01(z)
    values = [jm]
    store = values.append
    for f in _ODD[1 : len(out)]:
        store(jc)
        jm, jc = jc, f / z * jc - jm
    out[:] = values
    return out


def _upward_table(z, out):
    """``_upward`` on every column of an array of real z at once."""
    out[0], out[1] = _j01(z)
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
    """Order from which Miller's run at |z| = a, 0 < a <= top, starts.

    Started at order n with j_{n+1} = 0, the run at order ``top`` is off
    by about e^{-2 (F(n) - F(top))} relative (see ``_debye_exponent``;
    W. Gautschi, SIAM Review 9, 1967): n is the smallest order where that
    is below e^-40, read at the next integer up from a, which only
    lengthens the run.  The row of one ``top`` is made on first use.
    """
    row = _STARTS.get(top)
    if row is None:
        row, n = [], top + 1
        for k in range(top + 1):  # entry 0 repeats entry 1
            ak = float(max(k, 1))
            floor = _debye_exponent(top, ak) + 20.0
            # F(n) - F(top) falls as a grows, so n never steps back
            while _debye_exponent(n, ak) < floor:
                n += 1
            row.append(n)
        _STARTS[top] = row
    return row[math.ceil(a)]


def _could_overflow(a, start):
    """Whether Miller's run from order ``start`` at |z| = a could pass the
    renormalizing limit."""
    # a step grows |j| at most by (2n+1)/|z| + 1, so the whole run by
    # (2/a)^start Gamma(start + 1 + c)/Gamma(1 + c), a = |z| and
    # c = (1 + a)/2; while that stays below the limit, no step can reach it
    c = 0.5 * (1.0 + a)
    return (
        start * math.log(2.0 / a) + math.lgamma(start + 1.0 + c)
        - math.lgamma(1.0 + c) > math.log(_RENORM_LIMIT / 1e-30)
    )


def _miller_run(z, top, start):
    """Miller's run at a scalar z from order ``start``: the unnormalized
    j_{top-1} .. j_0 as a list, the factor that normalizes them, and the
    closed-form j_0, j_1; or None where the run could overflow."""
    if _could_overflow(abs(z), start):
        return None
    above, cur = 0.0, 1e-30
    for f in _ODD[start:top:-1]:
        above, cur = cur, f / z * cur - above
    values = []
    store = values.append
    for f in _ODD[top:0:-1]:
        above, cur = cur, f / z * cur - above
        store(cur)
    j0, j1 = _j01(z)
    # cur / above now hold the unnormalized order-0 / order-1 values;
    # j_0 and j_1 have no common zeros
    return values, j0 / cur if abs(j0) >= abs(j1) else j1 / above, j0, j1


def _miller_renormalized(z, out, start):
    """Miller's run at a scalar z from order ``start`` into ``out``, of
    length 2 at least: every value, and every one stored, is rescaled once
    the run passes the limit.  A run that does not rescale rounds every
    value by the operations of ``_miller_run``, in the same order."""
    top = len(out)
    above, cur = 0.0, 1e-30
    for n in range(start, 0, -1):
        below = (2 * n + 1) / z * cur - above
        if n <= top:
            out[n - 1] = below
        if abs(below) > _RENORM_LIMIT:
            scale = 1.0 / abs(below)
            below = below * scale
            cur = cur * scale
            out *= scale
        above, cur = cur, below
    j0, j1 = _j01(z)
    out *= j0 / cur if abs(j0) >= abs(j1) else j1 / above
    # the recurrence cannot resolve j_0, j_1 near their zeros; the closed
    # forms can, so they always win
    out[0], out[1] = j0, j1
    return out


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
    For |z| > N the upward recurrence from closed-form j_0, j_1 is used
    directly.  Otherwise the sequence comes from downward (Miller)
    recurrence started at order ``_miller_start(N, |z|)`` (the Debye
    bound: its error at order N is below e^-40) with an arbitrary seed and
    normalized through the closed-form j_0 or j_1.  For |z| < 1e-8 the
    series j_n(z) = z^n/(2n+1)!! (1 - z^2/(2(2n+3))) is used instead.  A
    complex z on the real axis takes the real branches.
    """
    _check_order(N)
    z = _scalar(_python(z))
    az = abs(z)
    is_complex = isinstance(z, complex)
    out = np.zeros(N + 1, dtype=np.complex128 if is_complex else np.float64)
    if az == 0.0:
        out[0] = 1.0
        return out
    if az < _TINY_Z:
        return _tiny_series(z, out)
    if az > N:
        return _upward(z, out)
    return _miller_renormalized(z, out, _miller_start(N, az))


def _upward_sum(coeffs, z):
    """``spherical_j_sum`` by the upward recurrence, summed as it recurs."""
    jm, jc = _j01(z)
    if len(coeffs) == 1:
        return coeffs[0] * jm
    acc = coeffs[0] * jm + coeffs[1] * jc
    rest = zip(coeffs[2:], _ODD[1 : len(coeffs) - 1])
    if isinstance(z, complex):
        w = 1.0 / z
        for c, f in rest:
            jm, jc = jc, w * f * jc - jm
            acc += c * jc
    else:
        # a real z keeps its own loop, stepping by f / z: stepping by
        # w = 1/z, as the complex loop does, is no faster on floats and
        # rounds z once more at every order (sine_solution on exp(x) at
        # omega = 2.23 then moves by 2e-14)
        for c, f in rest:
            jm, jc = jc, f / z * jc - jm
            acc += c * jc
    return acc


def _miller_sum(coeffs, z, start):
    """``spherical_j_sum`` by Miller's run from order ``start``: the
    unnormalized orders N..2 summed as they come, times the factor that
    normalizes them, plus the closed-form j_0 and j_1 terms; None where
    the run could overflow."""
    if _could_overflow(abs(z), start):
        return None
    N = len(coeffs) - 1
    above, cur = 0.0, 1e-30
    acc = 0.0
    down = zip(coeffs[N:1:-1], _ODD[N:1:-1])
    if isinstance(z, complex):
        w = 1.0 / z
        for f in _ODD[start:N:-1]:
            above, cur = cur, w * f * cur - above
        for c, f in down:
            acc += c * cur
            above, cur = cur, w * f * cur - above
        below = w * 3.0 * cur - above
    else:
        # f / z for a real z, as in _upward_sum
        for f in _ODD[start:N:-1]:
            above, cur = cur, f / z * cur - above
        for c, f in down:
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
    The branches of ``spherical_j_sequence``, without an array: the upward
    recurrence adds each term as it recurs, and Miller's run (from the same
    start order) adds the unnormalized orders N..2, scales that sum once
    and adds the closed-form j_0 and j_1 terms.  A complex z steps with
    its reciprocal, taken once.  The tiny series and a run that must
    renormalize take ``spherical_j_sequence`` itself.
    """
    N = len(coeffs) - 1
    _check_order(N)
    z = _scalar(z)
    az = abs(z)
    if az > N:
        return _upward_sum(coeffs, z)
    if az >= _TINY_Z:
        total = _miller_sum(coeffs, z, _miller_start(N, az))
        if total is not None:
            return total
    values = spherical_j_sequence(N, z).tolist()
    return sum(c * v for c, v in zip(coeffs, values))


def spherical_j_table(N: int, z: np.ndarray) -> np.ndarray:
    """Values j_n(z_k) for n = 0..N+1, one column per real argument.

    Parameters
    ----------
    N : int
        The table runs one order past N (for derivatives), N at most 120.
    z : 1-D array of real z > 0

    Returns
    -------
    np.ndarray
        float64, shape (N + 2, len(z)).

    Notes
    -----
    The branches of ``spherical_j_sequence``, chosen per column: the
    series for z < 1e-8, upward recurrence where z > N, and otherwise
    Miller's downward recurrence run on each column alone from its own
    start order ``_miller_start(N + 1, z)``, normalized through the
    closed-form j_0 or j_1, so no column depends on the others in the
    batch (the runs are normalized together, each element by its own
    column's factor).
    The upward recurrence runs over every column first; the others are
    overwritten.
    """
    _check_order(N)
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or not np.all(z > 0):
        raise ValueError("spherical_j_table needs a 1-D array of z > 0")
    out = np.empty((N + 2, z.size))
    # the unstable columns may overflow; they are overwritten below
    with np.errstate(all="ignore"):
        _upward_table(z, out)
    low = np.flatnonzero((z <= N) | (z < _TINY_Z))
    zl = z[low]
    tiny = zl < _TINY_Z
    if tiny.any():
        rows = np.empty((N + 2, np.count_nonzero(tiny)))
        out[:, low[tiny]] = _tiny_series(zl[tiny], rows)
    runs, columns = [], []
    for k, zk in zip(low[~tiny].tolist(), zl[~tiny].tolist()):
        start = _miller_start(N + 1, zk)
        run = _miller_run(zk, N + 2, start)
        if run is None:
            # zeros: a renormalization also scales the rows not yet written
            out[:, k] = _miller_renormalized(zk, np.zeros(N + 2), start)
        else:
            runs.append(run)
            columns.append(k)
    if runs:
        values, factor, j0, j1 = zip(*runs)
        block = np.array(values).T[::-1] * np.array(factor)
        # the closed forms win, as in _miller_renormalized
        block[0], block[1] = j0, j1
        out[:, columns] = block
    return out
