"""Second routes to numbers the library computes, kept for the tests only.

* ``alpha_direct``: alpha_n by the explicit Legendre sum over closed-form
  moments of the twice-differentiated transmutation kernel, to check the
  library's seed-plus-recurrence route.  It carries its own compensated
  Legendre sum, ``_legendre_sum``, which the beta tests also check the
  library's plain row products against.
* ``solution_reference_extended``: u(omega, b) from a fixed-step
  extended-precision run of the oracle's sixth-order Magnus step (three
  Gauss samples of q per step), for comparisons below ~1e-11 at large
  omega.
* ``propagators_reference``: the oracle's step propagators with each
  branch evaluated over the whole stack and picked by ``np.where``, the
  form the library's masked kernel must reproduce bit for bit.
* ``sequence_reference``, ``table_reference`` and ``envelope_reference``:
  the Bessel recurrences and the envelope written straightforwardly, each
  order stored as it is computed and every number read from its array at
  the call.  The library's kernels make the same IEEE operations in the
  same order (from the same Miller start order), so the tests require
  equal bits, not a tolerance.
* ``series_reference``: the scalar evaluation by ``np.dot`` over
  ``spherical_j_sequence``.  The library sums the series while it recurs,
  in another order, so the tests hold it to the rounding bound of the
  sum, not to equal bits.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from nsbf.bessel import _j01, _miller_start, _tiny_series, spherical_j_sequence
from nsbf.grid import Grid
from nsbf.oracle import _NODES, _SQRT15_3, _propagators

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
        term = leg[n, k] * rows[k]
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
    grid = phi.grid
    x = np.asarray(grid.nodes, dtype=phi.dev_ratio.dtype)
    mask = np.asarray(grid.nodes) >= X_MIN_FRACTION * grid.b
    xq = x[mask]
    q0 = q[0]
    core = q / 4.0 - Q * Q / 8.0

    k = np.zeros((n_max + 1, grid.M + 1), dtype=phi.dev_ratio.dtype)
    ratio = np.zeros_like(k)
    k[0] = core - q0 / 4.0
    ratio[0][mask] = k[0][mask]
    if n_max >= 1:
        k[1] = (core + q0 / 4.0) * x - Q / 2.0
        ratio[1][mask] = (core + q0 / 4.0)[mask] - Q[mask] / (2.0 * xq)
    xnm2 = np.ones_like(x)  # x^(n-2)
    for n in range(2, n_max + 1):
        xnm1 = xnm2 * x
        sign = 1.0 if n % 2 == 0 else -1.0
        k[n] = (
            n * (n - 1) * (phi.dev_ratio[n - 2] * xnm2)
            + (core - sign * q0 / 4.0) * (xnm1 * x)
            - 0.5 * n * Q * xnm1
        )
        ratio[n][mask] = (
            n * (n - 1) * phi.dev_ratio[n - 2][mask] / (xq * xq)
            + (core - sign * q0 / 4.0)[mask]
            - 0.5 * n * Q[mask] / xq
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
    y0, y1 = np.stack((np.ones_like(lam), 1j * omegas / scale)).astype(np.clongdouble)
    h = np.longdouble(b) / n_steps
    # step starts accumulated in extended precision, q sampled in float64
    x = np.add.accumulate(np.full(n_steps, h))
    x = np.concatenate(([0.0], x[:-1].astype(float)))
    hf = float(h)
    q1, q2, q3 = (
        np.broadcast_to(q(x + c * hf), x.shape)[:, None] for c in _NODES
    )
    p11, p12, p21, p22 = _propagators(
        q1, q2, q3, np.full((n_steps, 1), hf), lam, scale
    )
    for i in range(n_steps):
        y0, y1 = p11[i] * y0 + p12[i] * y1, p21[i] * y0 + p22[i] * y1
    return y0.astype(complex)


def exponent_reference(q1, q2, q3, h, lam, scale):
    """Entries (d, b, c) of the oracle's sixth-order exponent
    [[d, b], [c, -d]] of a stack of steps, as ``_propagators`` forms them."""
    hs = h * scale
    hv = h * (q2 - lam) / scale
    hh = h * h
    D = _SQRT15_3 * hh * (q3 - q1)
    K = (10.0 / 3.0) * hh * (q3 - 2.0 * q2 + q1)
    e = 1.0 + D * D / 3600.0
    f = K / 180.0
    d = D * (K / 7200.0 - 1.0 / 12.0) + (D / 180.0) * (hs * hv)
    b = hs * (e - f)
    c = hv * (e + f) + (K * (1.0 / 12.0 + K / 3600.0) - D * D / 120.0) / hs
    return d, b, c


def propagators_reference(q1, q2, q3, h, lam, scale):
    """Entries (p11, p12, p21, p22) of exp([[d, b], [c, -d]]): cos and
    sin/s of the whole stack where delta2 = d^2 + bc < 0, cosh and sinh/s
    where not, each taken from an argument of 1 on the other side, then
    1 + delta2/6 where s < 1e-8."""
    d, b, c = exponent_reference(q1, q2, q3, h, lam, scale)
    delta2 = d * d + b * c
    s = np.sqrt(np.abs(delta2))
    osc = delta2 < 0.0
    small = s < 1e-8
    s_o = np.where(osc, s, 1.0)
    s_h = np.where(osc, 1.0, s)
    ch = np.where(osc, np.cos(s_o), np.cosh(s_h))
    shc = np.where(osc, np.sin(s_o) / s_o, np.sinh(s_h) / s_h)
    shc = np.where(small, 1.0 + delta2 / 6.0, shc)
    return ch + shc * d, shc * b, shc * c, ch - shc * d


def upward_reference(z, out):
    """Upward recurrence at a scalar z or an array of real z."""
    jm, jc = _j01(z)
    out[0] = jm
    for n in range(1, len(out)):
        out[n] = jc
        jm, jc = jc, (2 * n + 1) / z * jc - jm
    return out


def miller_reference(z, out, start):
    """Miller's downward recurrence at a scalar z, from order ``start``,
    renormalized wherever the growth bound could reach 1e250."""
    a = abs(z)
    c = 0.5 * (1.0 + a)
    check = (
        start * math.log(2.0 / a) + math.lgamma(start + 1.0 + c)
        - math.lgamma(1.0 + c) > math.log(1e250 / 1e-30)
    )
    top = len(out)
    above, cur = 0.0, 1e-30
    for n in range(start, 0, -1):
        below = (2 * n + 1) / z * cur - above
        if n <= top:
            out[n - 1] = below
        if check and abs(below) > 1e250:
            scale = 1.0 / abs(below)
            below = below * scale
            cur = cur * scale
            out *= scale
        above, cur = cur, below
    j0, j1 = _j01(z)
    out *= j0 / cur if abs(j0) >= abs(j1) else j1 / above
    out[0] = j0
    if top > 1:
        out[1] = j1
    return out


def sequence_reference(N: int, z) -> np.ndarray:
    """j_0(z) .. j_N(z) by the branches of ``spherical_j_sequence``."""
    is_complex = isinstance(z, complex) and z.imag != 0.0
    z = complex(z) if is_complex else float(z)
    az = abs(z)
    out = np.zeros(N + 1, dtype=complex if is_complex else float)
    if az == 0.0:
        out[0] = 1.0
        return out
    if az < 1e-8:
        return _tiny_series(z, out)
    if az > N:
        return upward_reference(z, out)
    return miller_reference(z, out, _miller_start(N, az))


def table_reference(N: int, z: np.ndarray) -> np.ndarray:
    """j_n(z_k), n = 0..N+1, by the branches of ``spherical_j_table``, each
    run on the columns it serves alone."""
    out = np.empty((N + 2, z.size))
    tiny = z < 1e-8
    up = ~tiny & (z > N)
    miller = ~(tiny | up)
    for mask, kernel in ((tiny, _tiny_series), (up, upward_reference)):
        if mask.any():
            out[:, mask] = kernel(z[mask], np.empty((N + 2, np.count_nonzero(mask))))
    if miller.any():
        out[:, miller] = np.array([
            miller_reference(zk, np.zeros(N + 2), _miller_start(N + 1, zk))
            for zk in z[miller].tolist()
        ]).T
    return out


def series_reference(model, omega, x_index: int, representation: str) -> complex:
    """u_N(omega, x_j) of either representation at a Python scalar omega,
    u = a e^{i omega x} - p e^{-i omega x}/(4 d) - k S/d (see
    ``nsbf.solution._assemble``)."""
    improved = representation == "improved"
    table = model._alpha_c if improved else model._beta_c
    n_top = model.N + 2 if improved else model.N
    x = float(model.grid.nodes[x_index])
    z = omega * x
    if isinstance(z, complex) and z.imag == 0.0:
        z = z.real
    jn = spherical_j_sequence(n_top, z)
    e, em = cmath.exp(1j * omega * x), cmath.exp(-1j * omega * x)
    S = complex(np.dot(table[x_index, : n_top + 1], jn))
    if improved:
        num = complex if model.is_complex else float
        Q = num(model.Q[x_index])
        core = num(model.q[x_index]) / 4.0 - Q * Q / 8.0
        d = omega * omega
        a = 1.0 + Q / (2j * omega) + core / d
        p, k = model.q0, 2.0
    else:
        a, p, k, d = 1.0, 0.0, -2.0, 1.0
    return e * a - p * em / (4.0 * d) - k * S / d


def envelope_reference(model, omega, x_index: int, eps: np.ndarray) -> float:
    """The value of ``error_envelope`` where it is finite."""
    x = float(model.grid.nodes[x_index])
    a = abs(omega.imag) if isinstance(omega, complex) else 0.0
    scale = float(eps[x_index]) / abs(omega) ** 2
    if a < 1e-8:
        return scale * math.sqrt(2.0 * x)
    scale *= math.sqrt(-math.expm1(-4.0 * a * x) / (2.0 * a))
    if scale == 0.0:
        return 0.0
    if a * x < math.log(1.7976931348623157e308):
        return scale * math.exp(a * x)
    return math.exp(a * x + math.log(scale))
