"""Stable evaluation of spherical Bessel functions j_n(z), n = 0..N, for
real and complex arguments.

Strategy: closed-form j_0, j_1 plus upward three-term recurrence where it
is stable (|z| large compared to the top order), Miller-style downward
recurrence normalized through j_0 otherwise, and the power series for tiny
arguments.  ``spherical_j_table`` takes the same three branches for a whole
array of real arguments at once, choosing the branch per argument by mask.
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


def _j01(z: complex) -> tuple[complex, complex]:
    if abs(z) < 0.1:
        # the closed form for j_1 cancels two O(1/z) terms; the power
        # series keeps full relative accuracy at small argument
        w = -0.5 * z * z
        j0 = term = 1.0
        for k in range(1, 12):
            term *= w / (k * (2 * k + 1))
            j0 += term
            if abs(term) < 1e-20:
                break
        j1 = term = 1.0 / 3.0
        for k in range(1, 12):
            term *= w / (k * (2 * k + 3))
            j1 += term
            if abs(term) < 1e-20:
                break
        return j0, z * j1
    if isinstance(z, complex):
        s, c = cmath.sin(z), cmath.cos(z)
    else:
        s, c = math.sin(z), math.cos(z)
    return s / z, s / (z * z) - c / z


def spherical_j_sequence(N: int, z: complex) -> np.ndarray:
    """Values j_0(z) .. j_N(z) as a length N+1 array.

    Parameters
    ----------
    N : int
        Highest order, at most 120.
    z : real or complex
        Argument; |Im z| must not exceed 700.

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
    if N < 0:
        raise LimitError(f"order must be non-negative, got {N}")
    if N > N_CAP:
        raise LimitError(f"order {N} exceeds the supported cap {N_CAP}")

    is_complex = isinstance(z, complex) and z.imag != 0.0
    if is_complex and abs(z.imag) > IM_CAP:
        raise LimitError(
            f"|Im z| = {abs(z.imag):.3g} exceeds the overflow guard {IM_CAP}"
        )
    dtype = np.complex128 if is_complex else np.float64
    z = complex(z) if is_complex else float(z)
    az = abs(z)

    out = np.zeros(N + 1, dtype=dtype)
    if az == 0.0:
        out[0] = 1.0
        return out

    if az < _TINY_Z:
        # z^n / (2n+1)!! with the first correction term
        term = 1.0 + 0.0j if is_complex else 1.0
        z2 = z * z
        for n in range(N + 1):
            out[n] = term * (1.0 - z2 / (2.0 * (2 * n + 3)))
            term = term * z / (2 * n + 3)
        return out

    if az > N:
        # upward recurrence is stable while the order stays below |z|
        j0, j1 = _j01(z)
        out[0] = j0
        if N >= 1:
            out[1] = j1
        jm, jc = j0, j1
        for n in range(1, N):
            jm, jc = jc, (2 * n + 1) / z * jc - jm
            out[n + 1] = jc
        return out

    # Miller downward recurrence, normalized through the closed-form j_0
    # (or j_1 near a zero of j_0; the two have no common zeros)
    start = N + int(math.ceil(15.0 + az))
    above = 0.0j if is_complex else 0.0
    cur = 1e-30 * (1.0 + 0.0j) if is_complex else 1e-30
    for n in range(start, 0, -1):
        below = (2 * n + 1) / z * cur - above
        if n - 1 <= N:
            out[n - 1] = below
        if abs(below) > _RENORM_LIMIT:
            scale = 1.0 / abs(below)
            below *= scale
            cur *= scale
            out *= scale
        above, cur = cur, below
    j0, j1 = _j01(z)
    # cur / above now hold the unnormalized order-0 / order-1 values
    if abs(j0) >= abs(j1):
        out *= j0 / cur
    else:
        out *= j1 / above
    # the recurrence cannot resolve j_0, j_1 near their zeros; the closed
    # forms can, so they always win
    out[0] = j0
    if N >= 1:
        out[1] = j1
    return out


def _j01_table(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """j_0, j_1 for an array of real z > 0, as in ``_j01``."""
    j0 = np.empty_like(z)
    j1 = np.empty_like(z)
    small = z < 0.1
    if small.any():
        zs = z[small]
        w = -0.5 * zs * zs
        s0 = t0 = np.ones_like(zs)
        s1 = t1 = np.full_like(zs, 1.0 / 3.0)
        # past k = 5 the terms are below 1e-20 of the leading one
        for k in range(1, 12):
            t0 = t0 * w / (k * (2 * k + 1))
            t1 = t1 * w / (k * (2 * k + 3))
            s0 = s0 + t0
            s1 = s1 + t1
        j0[small], j1[small] = s0, zs * s1
    zl = z[~small]
    sin, cos = np.sin(zl), np.cos(zl)
    j0[~small] = sin / zl
    j1[~small] = sin / (zl * zl) - cos / zl
    return j0, j1


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
    Miller's downward recurrence from one start order
    N + ceil(15 + max z) shared by those columns, rescaled per column and
    normalized through the closed-form j_0 or j_1.
    """
    if N < 0:
        raise LimitError(f"order must be non-negative, got {N}")
    if N > N_CAP:
        raise LimitError(f"order {N} exceeds the supported cap {N_CAP}")
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or not np.all(z > 0):
        raise ValueError("spherical_j_table needs a 1-D array of z > 0")
    top = N + 1
    out = np.empty((top + 1, z.size))

    tiny = z < _TINY_Z
    if tiny.any():
        zt = z[tiny]
        term = np.ones_like(zt)
        for n in range(top + 1):
            out[n, tiny] = term * (1.0 - zt * zt / (2.0 * (2 * n + 3)))
            term = term * zt / (2 * n + 3)

    up = ~tiny & (z > N)
    if up.any():
        zu = z[up]
        rows = np.empty((top + 1, zu.size))
        rows[0], rows[1] = _j01_table(zu)
        for n in range(1, top):
            rows[n + 1] = (2 * n + 1) / zu * rows[n] - rows[n - 1]
        out[:, up] = rows

    miller = ~tiny & (z <= N)
    if miller.any():
        zm = z[miller]
        rows = np.zeros((top + 1, zm.size))
        start = N + int(math.ceil(15.0 + zm.max()))
        above = np.zeros_like(zm)
        cur = np.full_like(zm, 1e-30)
        # a step grows |j| at most by (2n+1)/z + 1; when the bound stays
        # below the renormalization limit, no column can reach it
        orders = np.arange(1, start + 1)
        may_grow = (
            np.sum(np.log((2 * orders + 1) / zm.min() + 1.0))
            > math.log(_RENORM_LIMIT / 1e-30)
        )
        for n in range(start, 0, -1):
            below = (2 * n + 1) / zm * cur - above
            if n - 1 <= top:
                rows[n - 1] = below
            if may_grow:
                big = np.abs(below) > _RENORM_LIMIT
                if big.any():
                    scale = np.where(big, 1.0 / np.abs(below), 1.0)
                    below *= scale
                    cur *= scale
                    rows *= scale
            above, cur = cur, below
        j0, j1 = _j01_table(zm)
        # cur / above hold the unnormalized order-0 / order-1 values
        use_j0 = np.abs(j0) >= np.abs(j1)
        rows *= np.where(use_j0, j0, j1) / np.where(use_j0, cur, above)
        rows[0], rows[1] = j0, j1
        out[:, miller] = rows
    return out
