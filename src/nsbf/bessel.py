"""Stable evaluation of spherical Bessel functions j_n(z), n = 0..N, for
real and complex arguments.

There are four branches: the power series for tiny arguments; closed-form
j_0 and j_1, by their own series below |z| = 0.1; upward three-term
recurrence where it is stable (|z| above the top order); and otherwise
Miller's downward recurrence from an arbitrary seed, normalized through
j_0 or j_1 (DLMF 10.51; W. Gautschi, SIAM Review 9, 1967).

``spherical_j_sequence`` picks one branch for its Python scalar and runs
it in Python arithmetic: ``_upward`` and ``_miller_run`` step on Python
floats or complexes, take each factor 2n+1 from the float list ``_ODD``,
collect the values in a list and write the output array once.  Miller's
run makes no store above the top order, and only a run whose growth bound
could overflow takes the renormalizing loop.  ``spherical_j_table``
serves a 1-D array of real arguments: ``_upward_table`` runs over every
column, one division for the whole (2n+1)/z table and two ufunc calls per
order, and the columns at or below the top order are then overwritten by
the tiny series or by Miller's run.  Each column's run starts from its own
order in Python arithmetic; their unnormalized lists are then normalized
together, by one product with the row of their factors, and written in one
pass (a run that renormalizes writes its own column).

Every value is rounded by the same IEEE operations, in the same order, as
the straightforward recurrence ``(2*n + 1)/z * j_n - j_{n-1}`` that stores
each order as it goes (``tests/crosschecks.py`` keeps that form): a float
2n+1 divides as the int does, storing a Python number in the output is
exact whether it is done per order or once, a float64 ufunc element rounds
as the Python float operation does, and no element of a ufunc result
depends on the other columns; so the tests compare with ``np.array_equal``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import LimitError

__all__ = ["spherical_j_sequence", "spherical_j_table"]

#: highest supported order
N_CAP = 120

#: |Im z| guard: sinh-type growth of j_n overflows float64 beyond this
IM_CAP = 700.0

_TINY_Z = 1e-8
_RENORM_LIMIT = 1e250

#: 2n+1 for every order a recurrence reaches: Miller starts at most at
#: N_CAP + ceil(15 + N_CAP)
_ODD = [2.0 * n + 1.0 for n in range(2 * N_CAP + 16)]
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


def _miller_run(z, top, start):
    """Miller's run at a scalar z from order ``start``: the unnormalized
    j_{top-1} .. j_0 as a list, the factor that normalizes them, and the
    closed-form j_0, j_1; or None where the run could overflow."""
    # a step grows |j| at most by (2n+1)/|z| + 1, so the whole run by
    # (2/a)^start Gamma(start + 1 + c)/Gamma(1 + c), a = |z| and
    # c = (1 + a)/2; while that stays below the limit, no step can reach it
    a = abs(z)
    c = 0.5 * (1.0 + a)
    if (
        start * math.log(2.0 / a) + math.lgamma(start + 1.0 + c)
        - math.lgamma(1.0 + c) > math.log(_RENORM_LIMIT / 1e-30)
    ):
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
    """Miller's run where ``_miller_run`` could overflow: every value, and
    every one stored, is rescaled once the run passes the limit."""
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
    out[0], out[1] = j0, j1
    return out


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
    recurrence started at order N + ceil(15 + |z|) with an arbitrary seed
    and normalized by matching j_0(z) = sin(z)/z.  For |z| < 1e-8 the
    series j_n(z) = z^n/(2n+1)!! (1 - z^2/(2(2n+3))) is used instead.
    """
    _check_order(N)
    if isinstance(z, np.generic):
        z = complex(z) if isinstance(z, np.complexfloating) else float(z)
    is_complex = isinstance(z, complex) and z.imag != 0.0
    if is_complex and abs(z.imag) > IM_CAP:
        raise LimitError(
            f"|Im z| = {abs(z.imag):.3g} exceeds the overflow guard {IM_CAP}"
        )
    z = complex(z) if is_complex else float(z)
    az = abs(z)
    out = np.zeros(N + 1, dtype=np.complex128 if is_complex else np.float64)
    if az == 0.0:
        out[0] = 1.0
        return out
    if az < _TINY_Z:
        return _tiny_series(z, out)
    if az > N:
        return _upward(z, out)
    start = N + math.ceil(15.0 + az)
    run = _miller_run(z, N + 1, start)
    if run is None:
        return _miller_renormalized(z, out, start)
    values, factor, j0, j1 = run
    out[::-1] = values
    out *= factor
    # the recurrence cannot resolve j_0, j_1 near their zeros; the closed
    # forms can, so they always win
    out[0], out[1] = j0, j1
    return out


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
    start order N + ceil(15 + z), normalized through the closed-form j_0
    or j_1, so no column depends on the others in the batch (the runs
    are normalized together, each element by its own column's factor).
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
        start = N + math.ceil(15.0 + zk)
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
        # the closed forms win, as in spherical_j_sequence
        block[0], block[1] = j0, j1
        out[:, columns] = block
    return out
