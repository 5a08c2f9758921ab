import math

import numpy as np
import pytest
from scipy.special import jv, yv

from nsbf import EigProblem, OracleError, find_eigenvalues, oracle
from nsbf.oracle import (
    characteristic_reference,
    eigenvalues_reference,
    propagate,
    solution_reference,
)

from crosschecks import (
    exponent_reference,
    propagators_reference,
    solution_reference_extended,
)

PI = math.pi


def test_free_particle_phases():
    for w in (10.0, 100.0, 1000.0):
        u = solution_reference(lambda x: 0.0, PI, [w])[0]
        assert abs(u - np.exp(1j * w * PI)) < 5e-13


def test_constant_potential_closed_form():
    for w in (2.0, 50.0, 1000.0):
        u = solution_reference(lambda x: 1.0, PI, [w])[0]
        wp = math.sqrt(w * w - 1.0)
        exact = math.cos(wp * PI) + 1j * w * math.sin(wp * PI) / wp
        assert abs(u - exact) < 5e-13


def test_extended_mode_high_omega():
    u = solution_reference_extended(lambda x: 0.0, PI, [1000.0])[0]
    # the comparison phase must itself be formed in extended precision
    phase = np.longdouble(1000.0) * np.longdouble(PI)
    exact = complex(np.cos(phase)) + 1j * complex(np.sin(phase))
    assert abs(u - exact) < 5e-14


def test_batch_matches_scalar():
    ws = np.array([3.0, 17.0, 41.0])
    batch = solution_reference(np.exp, PI, ws)
    singles = [solution_reference(np.exp, PI, [w])[0] for w in ws]
    assert max(abs(b - s) for b, s in zip(batch, singles)) < 1e-12


def test_hyperbolic_initial_values():
    # lam = 0, u(0)=1, u'(0)=0 for q = 1 gives cosh
    y, _ = propagate(lambda x: 1.0, PI, [0.0], np.array([1.0, 0.0]))
    assert float(y[0, 0].real) == pytest.approx(math.cosh(PI), rel=1e-12)
    assert float(y[1, 0].real) == pytest.approx(math.sinh(PI), rel=1e-12)


def test_characteristic_zero_crossings():
    # q = 1: s(lam) = sin(sqrt(lam-1) pi)/sqrt(lam-1) vanishes at 1 + n^2
    lams = np.array([2.0, 5.0, 10.0])
    s = characteristic_reference(lambda x: 1.0, PI, lams)
    assert float(np.max(np.abs(s))) < 1e-12


def test_eigenvalues_reference_recovers_roots():
    seeds = np.array([1.0 + n * n + 3e-4 for n in range(1, 9)])
    lam = eigenvalues_reference(lambda x: 1.0, PI, seeds)
    exact = np.array([1.0 + n * n for n in range(1, 9)])
    assert float(np.max(np.abs(lam - exact))) < 1e-10


def test_eigenvalues_reference_needs_bracketable_seed():
    # 3.5 sits between the q=1 eigenvalues 2 and 5, far from both
    with pytest.raises(OracleError):
        eigenvalues_reference(lambda x: 1.0, PI, np.array([3.5]))


def test_eigenvalues_reference_brackets_after_the_sixth_widening():
    # 0.1 off needs a half-width of 8^6 initial ones (0.26): the bracket of
    # the last widening is tested, not dropped
    seeds = np.array([1.0 + n * n + 0.1 for n in range(1, 4)])
    lam = eigenvalues_reference(lambda x: 1.0, PI, seeds)
    exact = np.array([1.0 + n * n for n in range(1, 4)])
    assert float(np.max(np.abs(lam - exact))) < 1e-10


def test_eigenvalues_reference_raises_when_refinement_stalls(monkeypatch):
    # one sweep cannot close the brackets widened around seeds 3e-4 off
    monkeypatch.setattr(oracle, "MAX_SWEEPS", 1)
    seeds = np.array([1.0 + n * n + 3e-4 for n in range(1, 9)])
    with pytest.raises(OracleError, match="still wider"):
        eigenvalues_reference(lambda x: 1.0, PI, seeds)


def test_eigenvalues_reference_widens_only_open_brackets(monkeypatch):
    # seed 3 is 3e-4 off and needs three widenings; the other seven are
    # bracketed by the initial 1e-6 half-width
    seeds = np.array([1.0 + n * n + (3e-4 if n == 3 else 1e-7)
                      for n in range(1, 9)])
    calls = []
    replay = oracle._replay_characteristic

    def logged(mesh, lams):
        calls.append(np.array(lams))
        return replay(mesh, lams)

    monkeypatch.setattr(oracle, "_replay_characteristic", logged)
    lam = eigenvalues_reference(lambda x: 1.0, PI, seeds)
    for r, lams in enumerate(calls[:3], start=1):
        delta = 1e-6 * 8.0**r
        assert np.array_equal(lams, [seeds[2] - delta, seeds[2] + delta])
    # the fourth call is already a secant sweep over all eight brackets
    assert calls[3].size == 2 * seeds.size
    exact = np.array([1.0 + n * n for n in range(1, 9)])
    assert float(np.max(np.abs(lam - exact))) < 1e-10


def _bisect_adaptive(q, lam, iterations=16):
    """Plain bisection on the adaptive shooting function, from brackets
    1e-9 relative wide around lam."""
    lo, hi = lam * (1.0 - 1e-9), lam * (1.0 + 1e-9)
    s_lo = characteristic_reference(q, PI, lo)
    assert np.all(np.sign(s_lo) != np.sign(characteristic_reference(q, PI, hi)))
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        left = np.sign(characteristic_reference(q, PI, mid)) == np.sign(s_lo)
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def _paine(x):
    return 1.0 / (x + 0.1) ** 2


#: the benchmark's eigenvalue blocks: Paine's lambda_2, lambda_3 and exp's
#: lambda_5, lambda_6, seeded 2e-8 relative off
BLOCKS = [
    (_paine, np.array([4.94330982, 10.28466265]) * (1.0 + np.array([2e-8, -2e-8]))),
    (np.exp, np.array([32.26370705, 43.22001964]) * (1.0 + np.array([-2e-8, 2e-8]))),
]


def test_eigenvalues_reference_samples_q_once():
    # one adaptive pass over the 2K initial bracket endpoints; every later
    # sweep replays its mesh
    for q, seeds in BLOCKS:
        calls = [0]

        def counted(x, q=q):
            calls[0] += np.size(x)
            return q(x)

        eigenvalues_reference(counted, PI, seeds)
        n_eig, calls[0] = calls[0], 0
        delta = np.maximum(1e-6, 1e-9 * np.abs(seeds))
        propagate(counted, PI, np.concatenate((seeds - delta, seeds + delta)),
                  np.array([0.0, 1.0]))
        assert n_eig == calls[0]


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_eigenvalues_reference_matches_adaptive_bisection_on_blocks(block):
    q, seeds = BLOCKS[block]
    lam = eigenvalues_reference(q, PI, seeds)
    assert np.max(np.abs(lam - _bisect_adaptive(q, lam)) / lam) <= 1e-12


def test_eigenvalues_reference_matches_adaptive_bisection_exp_40(model_exp):
    seeds = np.array([r.lam for r in find_eigenvalues(EigProblem(model_exp), 40)])
    lam = eigenvalues_reference(np.exp, PI, seeds)
    assert np.max(np.abs(lam - _bisect_adaptive(np.exp, lam)) / lam) <= 1e-12


def test_singular_potential_raises_promptly():
    # q = 1/(x-1) drives the step toward 0 at x = 1; the step floor stops
    # it long before the step budget (9 samples a step, 1e6 steps) would
    calls = [0]

    def q(x):
        calls[0] += np.size(x)
        return 1.0 / (x - 1.0)

    with pytest.raises(OracleError, match=r"x=0\.99999"):
        characteristic_reference(q, PI, [1.0, 4.0, 9.0])
    assert calls[0] < 200_000


def _fixed_step_state(q, lam, n):
    """(u, u'/sqrt(lam)) at b = pi from u(0)=0, u'(0)=1 by n equal steps."""
    h = PI / n
    x = np.arange(n) * h
    lam = np.array([lam])
    scale = np.sqrt(lam)
    samples = [q(x + c * h)[:, None] for c in oracle._NODES]
    p11, p12, p21, p22 = oracle._propagators(
        *samples, np.full((n, 1), h), lam, scale
    )
    u, v = 0.0, 1.0 / scale[0]
    for i in range(n):
        u, v = p11[i, 0] * u + p12[i, 0] * v, p21[i, 0] * u + p22[i, 0] * v
    return np.array([u, v])


def _bump(x):
    """A Gaussian bump of height 1e3 and width 0.05 at x = 2."""
    return 1e3 * np.exp(-(((x - 2.0) / 0.05) ** 2))


def test_overflowing_trial_steps_are_rejected():
    # trial steps across the bump overflow the exponent; their error reads
    # nan, which once passed the test and made u(b) nan for 5 of these 12
    # lam alone, and for all 12 as a batch; the 1e-8 allows for a step that
    # meets the bump's far tail between its samples (4.5e-10 at lam = 1)
    lams = np.linspace(1.0, 2e4, 12)
    exact = np.array([_fixed_step_state(_bump, lam, 4096)[0] for lam in lams])
    alone = np.array([characteristic_reference(_bump, PI, [lam])[0]
                      for lam in lams])
    for s in (alone, characteristic_reference(_bump, PI, lams)):
        assert np.all(np.abs(s - exact) <= 1e-8 * np.abs(exact))


def test_propagator_is_sixth_order():
    states = [_fixed_step_state(np.exp, 100.0, n) for n in (64, 128, 256, 512)]
    diffs = [np.abs(b - a).max() for a, b in zip(states, states[1:])]
    orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert min(orders) >= 5.5


def _mixed_stack(seed, dtype):
    """Gauss samples, sizes, batch and scales of a seeded stack of steps
    whose entries are oscillatory, hyperbolic, below s = 1e-8, exactly at
    delta2 = 0 (a constant q equal to lam) and overflowing (h = 50)."""
    rng = np.random.default_rng(seed)
    lam = np.array([-5.0, 0.0, 1.0, 3.0, 40.0, 1e4])
    S = 120
    h = rng.choice([1e-10, 1e-3, 0.1, 1.0, 50.0], size=(S, 1))
    q = rng.normal(0.0, 20.0, size=(3, S, 1))
    # a third of the steps sample a constant q, one of the batch's lam
    flat = rng.random((S, 1)) < 1.0 / 3.0
    q = np.where(flat, rng.choice(lam, size=(S, 1)), q)
    lam = lam.astype(dtype)
    scale = np.sqrt(np.maximum(np.abs(lam), 1.0))
    return (*q.astype(dtype), h.astype(dtype), lam, scale)


@pytest.mark.parametrize("dtype", [float, np.longdouble])
@pytest.mark.parametrize("seed", range(4))
def test_propagators_equal_the_two_branch_kernel(seed, dtype):
    stack = _mixed_stack(seed, dtype)
    d, b, c = exponent_reference(*stack)
    delta2 = d * d + b * c
    s = np.sqrt(np.abs(delta2))
    assert np.any(delta2 < 0) and np.any(delta2 > 0) and np.any(delta2 == 0)
    assert np.any((s < 1e-8) & (delta2 != 0))
    with np.errstate(all="ignore"):
        got = oracle._propagators(*stack)
        want = propagators_reference(*stack)
    # the h = 50 steps overflow
    assert np.any(~np.isfinite(want[0]))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w, equal_nan=True)


def test_characteristic_matches_bessel_closed_form():
    # -u'' + u/(x+a)^2 = lam u has the solutions sqrt(t) Z_nu(k t), t = x + a,
    # nu = sqrt(5)/2, k = sqrt(lam); their Wronskian is 2/pi, so
    # s(lam) = (pi/2) sqrt(a (b+a)) (J(ka) Y(k(b+a)) - Y(ka) J(k(b+a)))
    a, nu = 0.1, math.sqrt(5.0) / 2.0
    lams = np.geomspace(1.0, 2e4, 12)
    k = np.sqrt(lams)
    exact = 0.5 * PI * math.sqrt(a * (PI + a)) * (
        jv(nu, k * a) * yv(nu, k * (PI + a)) - yv(nu, k * a) * jv(nu, k * (PI + a))
    )
    s = characteristic_reference(_paine, PI, lams)
    assert np.all(np.abs(s - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))


def _peak(x):
    """A peak of height 1e4 at x = 2, which long passes run into."""
    return 1.0 / ((x - 2.0) ** 2 + 1e-4)


@pytest.mark.parametrize(
    "q", [np.exp, _paine, lambda x: 1.0 / (x + 0.5) ** 2, _peak])
def test_propagate_samples_q_once_per_block(q):
    # one q call per pass; pass lengths run 1, 2, 4, ...: doubled after a
    # clean pass, halved after a rejection, never above
    # min(STEP_BLOCK, REPLAY_BLOCK // K); only a pass that reaches b is
    # cut short
    width = oracle._NODES[2] - oracle._NODES[0]
    for K in (12, 920):
        passes = []

        def counted(x):
            # the full-step Gauss points of each step of the pass
            full = np.reshape(x, (-1, 3, 3))[:, 0]
            size = (full[:, 2] - full[:, 0]) / width
            passes.append((full[:, 1] - 0.5 * size, full[:, 1] + 0.5 * size))
            return q(x)

        mesh = []
        _, n_steps = propagate(counted, PI, np.linspace(1.0, 2e4, K),
                               np.array([0.0, 1.0]), mesh=mesh)
        cap = min(oracle.STEP_BLOCK, oracle.REPLAY_BLOCK // K)
        # 12 lam leave the cap at STEP_BLOCK, which every sweep reaches
        assert cap == oracle.STEP_BLOCK or K == 920
        length, rejections, halved = 1, 0, 0
        for (starts, ends), following in zip(passes, passes[1:] + [None]):
            n = starts.size
            reaches_b = abs(ends[-1] - PI) < 1e-12
            assert n == length or (n < length and reaches_b)
            # a clean pass hands its end to the next one
            clean = following is None or abs(following[0][0] - ends[-1]) < 1e-12
            if clean:
                length = min(cap, 2 * length)
            else:
                halved += length > 1
                length = max(1, length // 2)
                rejections += 1
        assert abs(passes[-1][1][-1] - PI) < 1e-12
        assert rejections > 0
        assert rejections == n_steps - len(np.concatenate(mesh))
        assert max(starts.size for starts, _ in passes) == cap
        # the smooth potentials reject only their first one-step passes
        assert halved > 0 or q is not _peak


#: each entry point on exp(x) over [0, b], as a function of b and the batch
ENTRY_POINTS = {
    "propagate": lambda b, batch: propagate(np.exp, b, batch,
                                            np.array([0.0, 1.0]))[0][0],
    "solution": lambda b, batch: solution_reference(np.exp, b, batch),
    "characteristic": lambda b, batch: characteristic_reference(np.exp, b, batch),
    "eigenvalues": lambda b, batch: eigenvalues_reference(np.exp, b, batch),
}


@pytest.mark.parametrize("b", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_interval_must_be_finite_and_positive(name, b):
    # the loop over [0, b] never ran: the initial state came back as u(b)
    with pytest.raises(ValueError, match="finite and positive"):
        ENTRY_POINTS[name](b, [1.0])


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_empty_batch_gives_an_empty_result(name):
    # REPLAY_BLOCK // 0 raised ZeroDivisionError
    assert ENTRY_POINTS[name](PI, []).shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_non_finite_batch_member_refused(name, bad):
    # an OracleError once blamed q ("is q singular there?")
    with pytest.raises(ValueError, match="must be finite"):
        ENTRY_POINTS[name](PI, [4.0, bad])


def _sequential_states(E, u, v):
    """The states before and after each step of E, one step at a time."""
    us, vs = [u], [v]
    for e11, e12, e21, e22 in zip(*E):
        u, v = e11 * u + e12 * v, e21 * u + e22 * v
        us.append(u)
        vs.append(v)
    return np.array(us), np.array(vs)


@pytest.mark.parametrize("q", [np.exp, _paine])
@pytest.mark.parametrize("n", [32, 256, None])
def test_prefix_product_matches_sequential_steps(q, n):
    # lam = 1 is evanescent on exp(x), 1e4 oscillatory; the mesh of the
    # pair has more than 256 steps, and n = None takes all of it
    lams = np.array([1.0, 1e4])
    mesh = []
    propagate(q, PI, lams, np.array([0.0, 1.0]), mesh=mesh)
    rows = np.concatenate(mesh)[:n]
    assert n is None or len(rows) == n
    scale = np.sqrt(np.maximum(np.abs(lams), 1.0))
    _, _, E = oracle._step_matrices(rows, lams, scale)
    for u, v in ((np.zeros(2), 1.0 / scale), (np.ones(2), 1j * np.ones(2))):
        U, V = oracle._advance(E, u, v)
        U_seq, V_seq = _sequential_states(E, u, v)
        assert U.shape == V.shape == (len(rows) + 1, lams.size)
        norm = np.hypot(np.abs(U_seq), np.abs(V_seq))
        assert np.all(np.abs(U - U_seq) <= 1e-13 * norm)
        assert np.all(np.abs(V - V_seq) <= 1e-13 * norm)


@pytest.mark.parametrize("q", [np.exp, _paine])
def test_replayed_mesh_reproduces_propagate(q):
    lams = np.array([3.0, 40.0, 700.0, 1.5e4])
    mesh = []
    y, _ = propagate(q, PI, lams, np.array([0.0, 1.0]), mesh=mesh)
    s = oracle._replay_characteristic(np.concatenate(mesh), lams)
    assert np.all(np.abs(s - y[0]) <= 1e-13 * np.abs(y[0]))
