"""Built-in reference integrator for -u'' + q u = lam u on [0, b].

This is the verification oracle used by the test suite and the ``bench``
command.  It propagates the 2x2 fundamental system with a sixth-order
exponential (Magnus) one-step method whose local propagator is the exact
matrix exponential of

    Omega = a_1 + a_3/12 + [-20 a_1 - a_3 + C_1, a_2 + C_2]/240,
    C_1 = [a_1, a_2],  C_2 = -[a_1, 2 a_3 + C_1]/60,

with a_1 = h A_2, a_2 = (sqrt(15) h/3)(A_3 - A_1) and
a_3 = (10 h/3)(A_3 - 2 A_2 + A_1), A_i being the coefficient matrix at the
three Gauss nodes 1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10 of the step
(Blanes, Casas, Oteo and Ros, Phys. Rep. 470 (2009), section 5).  For the
Schroedinger matrix Omega has a short closed form, written out in
``_propagators``; for a constant q it reduces to h A and the step is exact.
Steps are controlled adaptively by an embedded full-step/two-half-steps
pair at the fixed relative tolerance RTOL = 1e-12.  Because the propagator
is exponential the accuracy is uniform in the spectral parameter: unlike a
Runge-Kutta oracle, the phase error does not grow with omega, which is what
makes residual comparisons at omega ~ 1000 meaningful in double precision.
A step size that falls below what x resolves (a singular q) raises
``OracleError`` at once.

All entry points are vectorized over a batch of spectral parameters; the
step size is shared across the batch (controlled by the worst member).
They refuse with ``ValueError`` a b that is not finite and positive and
a batch member that is not finite, and give an empty result for an empty
batch.  One kernel, ``_propagators``, builds the propagators of a stack
of steps for the whole batch at once, evaluating cos and sin only on its
oscillatory entries and cosh and sinh only on the others.  ``propagate``
attempts a pass of equal steps at a time: one call of q on the nine
Gauss nodes of each step and its two halves, one kernel call on that
stack, the states after every step from one prefix product of the step
matrices in log2 of the pass length levels (``_advance``), and a
vectorised error test of every step on the state it starts from.  The
steps before the first rejected one are accepted and the rest discarded;
the next step size comes from the rejected step, or from the pass's
worst error.  The first pass is one step long; a pass doubles after a
clean pass and halves after a rejection, and never exceeds STEP_BLOCK
steps nor REPLAY_BLOCK steps times spectral parameters.  A pass makes
nearly the same number of numpy calls whatever its length, so fewer and
longer passes cost less, up to where a pass held at one step size for
longer costs extra steps (STEP_BLOCK's comment has the measurement).  q
maps an ndarray of x to an array of q(x), or to a scalar for a constant.

``eigenvalues_reference`` adapts the mesh once, in one ``propagate`` over
the initial bracket endpoints, and records each accepted step's size and
its nine q samples.  Every later sweep replays that mesh with the locally
extrapolated step matrix E = F + (F - B)/63 (F the product of the two
half-step propagators, B the full step) that ``propagate`` advanced the
state with, built by the same ``_step_matrices`` and multiplied out by the
same ``_advance``, in blocks of REPLAY_BLOCK steps times spectral
parameters: no q calls and no error estimate.  The mesh stays valid
because an expanded bracket lies within 8^6 initial half-widths of the
values it was adapted to (2.6e-4 relative, or 0.26 for seeds below 1000),
and the step's local error varies smoothly with lam (fixed-mesh replay, as
in piecewise-perturbation codes such as MATSLISE).
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

#: the three Gauss nodes of a step, as fractions of its size
_NODES = np.array(
    (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)
)
_SQRT15_3 = math.sqrt(15.0) / 3.0

MAX_STEPS = 1_000_000
#: embedded-pair tolerances of the adaptive step control
RTOL = 1e-12
ATOL = 1e-14
#: secant sweeps allowed to polish the reference eigenvalues
MAX_SWEEPS = 80
#: steps times spectral parameters per kernel call of a mesh replay, which
#: bounds the replay's working set whatever the batch size
REPLAY_BLOCK = 4096
#: most steps in a pass of the adaptive integrator, which is also held to
#: REPLAY_BLOCK steps times spectral parameters: numpy's per-call overhead
#: sets the cost of a pass, and a pass starts at one step, so no long pass
#: commits steps of an unverified size.  A seed-1 round of the benchmark's
#: reference workload makes 587 kernel calls at 64 against 838 at 32; over
#: rounds of seeds 4-6 run in process, caps of 48, 64, 96 and 128 took
#: 0.89-0.91, 0.81-0.83, 0.79-0.80 and 0.75-0.80 of the time at 32 (2-core
#: x86-64, numpy 2.4).  In benchmark runs 96 and 128 read within the
#: run-to-run spread of 64, with a larger working set
STEP_BLOCK = 64


def _batch(b, name: str, values) -> np.ndarray:
    """``values`` as a 1-d float array, once b is found finite and positive
    and every entry finite.  Over any other b the loop would not run and
    the initial state would come back; a nan or inf entry would drive the
    step to its floor, and the error would blame q."""
    if not (math.isfinite(b) and b > 0.0):
        raise ValueError(f"right endpoint b must be finite and positive, got {b!r}")
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(values)):
        raise ValueError(f"every {name} must be finite")
    return values


def _propagators(q1, q2, q3, h, lam: np.ndarray, scale: np.ndarray):
    """Entries (p11, p12, p21, p22) of the step propagators of the scaled
    system for a stack of steps.

    q1, q2, q3 and h are the Gauss samples and sizes of the steps, shaped
    (S, 1) so that they broadcast against the batch lam and scale, shape
    (K,), to (S, K) entries.  The arithmetic keeps the dtype of its inputs.

    The state is y = (u, u'/scale) with scale ~ sqrt(|lam|), keeping both
    components O(1); carrying u' directly would pin the round-off floor at
    eps * sqrt(lam).

    The exponent is the sixth-order Omega of the module docstring, written
    out for the traceless matrices [[0, scale], [(q - lam)/scale, 0]] as
    [[d, b], [c, -d]]; a_2 and a_3 enter through the per-step scalars D
    and K.
    """
    hs = h * scale
    hv = h * (q2 - lam) / scale
    hh = h * h
    D = _SQRT15_3 * hh * (q3 - q1)
    K = (10.0 / 3.0) * hh * (q3 - 2.0 * q2 + q1)
    # d = D (-20 + (4/3) hs hv + K/30)/240
    # b = hs (1 + (D^2 - 20 K)/3600)
    # c = hv + K/(12 hs) + ((20 hv + K/hs) K/30 - D^2/hs + hv D^2/30)/120,
    # grouped into per-step factors: numpy's per-call overhead, not the
    # batch, sets the cost of a step
    e = 1.0 + D * D / 3600.0
    f = K / 180.0
    d = D * (K / 7200.0 - 1.0 / 12.0) + (D / 180.0) * (hs * hv)
    b = hs * (e - f)
    c = hv * (e + f) + (K * (1.0 / 12.0 + K / 3600.0) - D * D / 120.0) / hs
    # each full-size temporary is freed once spent, so that the working set
    # of a long pass stays near its outputs
    del hs, hv

    delta2 = d * d + b * c
    s = np.sqrt(np.abs(delta2))
    osc = delta2 < 0.0
    hyp = ~osc
    small = s < 1e-8

    # each branch only on its own entries, written into one output: no
    # spurious overflow, and every transcendental runs once per entry
    ch = np.empty_like(s)
    shc = np.empty_like(s)
    np.cos(s, out=ch, where=osc)
    np.cosh(s, out=ch, where=hyp)
    np.sin(s, out=shc, where=osc)
    np.sinh(s, out=shc, where=hyp)
    np.divide(shc, s, out=shc, where=~small)
    # both branches degenerate to 1 + delta2/6 + O(delta2^2) near 0
    np.copyto(shc, 1.0 + delta2 / 6.0, where=small)
    del delta2, s
    # in place: a product has the same bits in either order
    d *= shc
    b *= shc
    c *= shc
    return ch + d, b, c, ch - d


def _step_matrices(rows: np.ndarray, lam: np.ndarray, scale: np.ndarray):
    """Per-step matrices of a block of mesh rows (h, q1, ..., q9).

    Returns (F, B, E), each as its entries (11, 12, 21, 22) shaped (n, K)
    for the n rows and the batch of K: F is the product of the two
    half-step propagators, B the full-step one and E = F + (F - B)/63 the
    locally extrapolated step.  The pair differs at O(h^7), so the
    correction cancels the leading error term of F.
    """
    block = rows.T
    h = block[0]
    half = 0.5 * h
    # one (3, n, K) stack: the full steps, then the first and second halves
    p11, p12, p21, p22 = _propagators(
        block[1::3, :, None], block[2::3, :, None], block[3::3, :, None],
        np.array((h, half, half))[:, :, None], lam, scale,
    )
    F = (p11[2] * p11[1] + p12[2] * p21[1],
         p11[2] * p12[1] + p12[2] * p22[1],
         p21[2] * p11[1] + p22[2] * p21[1],
         p21[2] * p12[1] + p22[2] * p22[1])
    # copies, so that the stacked propagators are freed on return
    B = (p11[0].copy(), p12[0].copy(), p21[0].copy(), p22[0].copy())
    E = tuple(f + (f - g) / 63.0 for f, g in zip(F, B))
    return F, B, E


def _advance(E, u, v) -> tuple[np.ndarray, np.ndarray]:
    """The states (u, v) before and after each step, E applied in order:
    (n + 1, K) arrays, row 0 the initial state.

    The products P_i = E_i ... E_0 come from one inclusive prefix scan in
    ceil(log2 n) levels (Hillis and Steele): at level s every partial
    product from step s on is multiplied by the one s steps before it, the
    later step on the left.  numpy's per-call overhead, not the arithmetic,
    sets the cost, and a level costs the same few calls whatever n is.
    """
    P = np.array(E).reshape(2, 2, *np.shape(E[0]))
    n = P.shape[2]
    s = 1
    while s < n:
        later, earlier = P[:, :, s:], P[:, :, :-s]
        product = later[:, :1] * earlier[:1]
        product += later[:, 1:] * earlier[1:]
        P[:, :, s:] = product
        s *= 2
    return (np.concatenate((u[None], P[0, 0] * u + P[0, 1] * v)),
            np.concatenate((v[None], P[1, 0] * u + P[1, 1] * v)))


def _attempt(rows: np.ndarray, lam: np.ndarray, scale: np.ndarray, u, v):
    """One pass over the steps of ``rows`` from the state (u, v).

    Returns the states before and after each step, as ``_advance`` does,
    and each step's embedded-pair error on the state it starts from.  The
    step matrices and the error test's temporaries are freed on return, so
    that they do not stay alive through the next pass's kernel call.
    """
    # a trial step too long for its exponent overflows: its error reads nan,
    # taken as infinite, so that it is rejected at the smallest factor
    with np.errstate(over="ignore", invalid="ignore"):
        F, B, E = _step_matrices(rows, lam, scale)
        states_u, states_v = _advance(E, u, v)
        U, V = states_u[:-1], states_v[:-1]
        Fy = np.array((F[0] * U + F[1] * V, F[2] * U + F[3] * V))
        By = np.array((B[0] * U + B[1] * V, B[2] * U + B[3] * V))
        err = np.max(np.abs(Fy - By) / (ATOL + RTOL * np.abs(Fy)), axis=(0, 2))
    err[np.isnan(err)] = np.inf
    return states_u, states_v, err


def propagate(
    q, b: float, lam: np.ndarray, y0: np.ndarray, mesh: list | None = None
) -> tuple[np.ndarray, int]:
    """Integrate the system from 0 to b for every lam in the batch.

    Each pass attempts a block of equal steps: one call of q on their 9
    Gauss points each, one kernel call on the stack of full and half steps,
    then the states from one prefix product and a vectorised error test of
    every step on the state it starts from.  The steps before the first
    rejected one are accepted, the rest discarded.  The first pass has one
    step; a pass doubles after a clean pass and halves after a rejection,
    up to min(STEP_BLOCK, REPLAY_BLOCK // K) steps for a batch of K.

    Parameters
    ----------
    q : callable
        Potential: maps an ndarray of x to an array of q(x), or to a
        scalar for a constant.
    b : float
        Right endpoint.
    lam : array_like
        Batch of spectral parameters (shape (K,)).
    y0 : array_like
        Initial values, shape (2,) broadcast over the batch or (2, K);
        rows are (u(0), u'(0)).  May be complex.
    mesh : list, optional
        If given, one array of rows (h, q1, ..., q9) per pass is appended
        to it, a row per accepted step: the step size, then the three Gauss
        samples of the full step, of its first half and of its second half.

    Returns
    -------
    (y, n_steps)
        y has shape (2, K): u(b) and u'(b) per batch member.  n_steps
        counts the accepted and the rejected steps; the steps discarded
        behind a rejection are not counted.

    Raises
    ------
    ValueError
        If b is not finite and positive, or a lam is not finite.
    OracleError
        If the step count budget is exhausted, or if the step size falls
        below what x resolves (a singular q).
    """
    lam = _batch(b, "lam", lam)
    y0 = np.asarray(y0)
    if y0.ndim == 1:
        y0 = y0[:, None]
    y = np.array(np.broadcast_to(y0, (2, lam.size)))
    y = y.astype(complex) if np.iscomplexobj(y) else y.astype(float)
    if not lam.size:
        return y, 0
    scale = np.sqrt(np.maximum(np.abs(lam), 1.0))
    u, v = y[0], y[1] / scale

    x = 0.0
    h = b / 64.0
    # below this step the Gauss nodes of a half step lie within a few ulps
    # of each other anywhere in [0, b]: x no longer resolves the step
    h_min = 16.0 * np.finfo(float).eps * b
    n_steps = 0
    # passes share the replay's working-set bound
    cap = min(STEP_BLOCK, max(1, REPLAY_BLOCK // lam.size))
    n_pass = 1
    while b - x > 1e-15 * b:
        if h < h_min:
            raise OracleError(
                f"reference integrator step {h:.3e} fell below what x={x!r} "
                f"resolves; is q singular there?"
            )
        starts = x + h * np.arange(n_pass)
        starts = starts[b - starts > 1e-15 * b]
        n = starts.size
        sizes = np.minimum(h, b - starts)
        half = 0.5 * sizes
        # (n, 3, 3) points: full step, first half, second half by Gauss node
        points = (np.array((starts, starts, starts + half)).T[:, :, None]
                  + _NODES * np.array((sizes, half, half)).T[:, :, None])
        values = np.asarray(q(points.ravel()))
        rows = np.empty((n, 10), dtype=np.result_type(values, float))
        rows[:, 0] = sizes
        rows[:, 1:] = values.reshape(n, 9) if values.ndim else values
        states_u, states_v, err = _attempt(rows, lam, scale, u, v)
        rejected = np.flatnonzero(err > 1.0)
        n_ok = int(rejected[0]) if rejected.size else n
        if n_ok:
            u, v = states_u[n_ok], states_v[n_ok]
            x = float(starts[n_ok - 1] + sizes[n_ok - 1])
            if mesh is not None:
                mesh.append(rows[:n_ok])
        # the next size from the rejected step, else from the pass's worst
        worst = float(err[n_ok] if rejected.size else err.max())
        factor = 0.9 * worst ** (-1.0 / 7.0) if worst > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        n_steps += n_ok + (1 if rejected.size else 0)
        n_pass = max(1, n_pass // 2) if rejected.size else min(cap, 2 * n_pass)
        if n_steps > MAX_STEPS:
            raise OracleError(
                f"reference integrator exceeded {MAX_STEPS} steps "
                f"(x={x:.6g}, h={h:.3e})"
            )
    return np.stack((u, v * scale)), n_steps


def _replay_characteristic(mesh: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """s(lam) = u(b) with u(0)=0, u'(0)=1 over a recorded mesh.

    mesh holds one row (h, q1, ..., q9) per step, as ``propagate`` records
    it.  Each step applies its locally extrapolated matrix E, the one
    ``propagate`` advances the state with, through the same prefix product;
    the last state of a block starts the next.  No q is sampled and no
    error is estimated.
    """
    scale = np.sqrt(np.maximum(np.abs(lams), 1.0))
    u = np.zeros_like(lams)
    v = 1.0 / scale
    per = max(1, REPLAY_BLOCK // lams.size)
    for start in range(0, len(mesh), per):
        _, _, E = _step_matrices(mesh[start : start + per], lams, scale)
        states_u, states_v = _advance(E, u, v)
        u, v = states_u[-1], states_v[-1]
    return u


def solution_reference(q, b: float, omegas) -> np.ndarray:
    """Reference values u(omega, b) with u(0)=1, u'(0)=i*omega.

    omegas is a batch of real spectral parameters; returns complex values.
    """
    omegas = _batch(b, "omega", omegas)
    lam = omegas**2
    y0 = np.stack(
        (np.ones_like(omegas, dtype=complex), 1j * omegas.astype(complex))
    )
    y, _ = propagate(q, b, lam, y0)
    return y[0]


def characteristic_reference(q, b: float, lams) -> np.ndarray:
    """Dirichlet shooting function s(lam) = u(b) with u(0)=0, u'(0)=1."""
    y, _ = propagate(q, b, lams, np.array([0.0, 1.0]))
    return y[0]


def eigenvalues_reference(q, b: float, seeds) -> np.ndarray:
    """Refine approximate Dirichlet eigenvalues against the oracle.

    Each seed must lie closer to its true eigenvalue than to any other
    (true spacing between consecutive eigenvalues is ~2n+1 for b=pi, so
    any reasonable approximation qualifies).  Brackets are found around
    each seed and polished by secant steps.  Each sweep evaluates a pair of
    points 0.8 tolerance apart around every candidate, so a bracket closes
    once its candidate lands within 0.4 tolerance of the root.  All open
    brackets are batched, so one oracle sweep serves every index at once.

    Returns the refined eigenvalues in seed order.

    Raises
    ------
    ValueError
        If b is not finite and positive, or a seed is not finite.
    OracleError
        If a bracket cannot be established, or if a bracket is still
        wider than its tolerance after ``MAX_SWEEPS`` sweeps.
    """
    seeds = _batch(b, "seed", seeds)
    if not seeds.size:
        return seeds
    delta = np.maximum(1e-6, 1e-9 * np.abs(seeds))
    lo = seeds - delta
    hi = seeds + delta
    # the one adaptive pass: every later sweep replays its mesh
    mesh = []
    y, _ = propagate(q, b, np.concatenate((lo, hi)), np.array([0.0, 1.0]),
                     mesh=mesh)
    mesh = np.concatenate(mesh)
    s_lo, s_hi = y[0, : seeds.size], y[0, seeds.size :]

    # up to 6 widenings by 8, the last one tested like the others
    for widenings in range(7):
        # widen only the brackets still lacking a sign change, both ends in
        # one replay
        bad = np.flatnonzero(np.sign(s_lo) == np.sign(s_hi))
        if bad.size == 0:
            break
        if widenings == 6:
            raise OracleError(
                "could not bracket a reference eigenvalue near the provided "
                "seeds"
            )
        delta[bad] *= 8.0
        lo[bad] = seeds[bad] - delta[bad]
        hi[bad] = seeds[bad] + delta[bad]
        ends = _replay_characteristic(mesh, np.concatenate((lo[bad], hi[bad])))
        s_lo[bad], s_hi[bad] = ends[: bad.size], ends[bad.size :]

    # secant with a tolerance straddle: each sweep evaluates, for every open
    # bracket, two points 0.8 tol apart centred on the secant candidate (the
    # midpoint when that is not finite), kept inside the bracket; the bracket
    # becomes the one of the three pieces that holds the sign change, so it
    # closes as soon as a candidate lands within 0.4 tol of the root
    for sweep in range(MAX_SWEEPS + 1):
        tol = np.maximum(1e-12, 1e-14 * np.abs(hi))
        todo = np.flatnonzero(hi - lo > tol)
        if todo.size == 0:
            return 0.5 * (lo + hi)
        if sweep == MAX_SWEEPS:
            raise OracleError(
                f"{todo.size} reference eigenvalue brackets still wider than "
                f"their tolerance after {MAX_SWEEPS} sweeps"
            )
        x0, x1, f0, f1, t = lo[todo], hi[todo], s_lo[todo], s_hi[todo], tol[todo]
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = x1 - f1 * (x1 - x0) / (f1 - f0)
        cand = np.where(np.isfinite(cand), cand, 0.5 * (x0 + x1))
        cand = np.clip(cand, x0 + 0.4 * t, x1 - 0.4 * t)
        points = np.stack((x0, cand - 0.4 * t, cand + 0.4 * t, x1))
        inner = _replay_characteristic(mesh, points[1:3].ravel())
        values = np.stack((f0, *inner.reshape(2, -1), f1))
        # piece k holds the root, k being the number of leading inner points
        # with the sign of f0
        same = np.sign(values[1:3]) == np.sign(f0)
        k = np.cumprod(same, axis=0).sum(axis=0)
        cols = np.arange(todo.size)
        lo[todo], hi[todo] = points[k, cols], points[k + 1, cols]
        s_lo[todo], s_hi[todo] = values[k, cols], values[k + 1, cols]
