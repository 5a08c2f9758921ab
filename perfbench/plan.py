"""Seeded request plans for the four workloads.

A plan is one *round*: a fixed list of requests made from ``--seed`` alone.
A run repeats whole rounds, so every run attempts the same operations in the
same proportions, whatever the seed and however long it runs.  The seeded
draws are stratified and antithetic (the draws of one round are symmetric
about the middle of their range), so that the median request of a round
barely moves from seed to seed while the inputs themselves change.

Every check point of ``u(omega, x)`` carries its ``x``, formed once here
as the solver's grid forms it, so the references and the checks read the
same number.

Each workload also holds a few seed-free requests on inputs that today's
code gets wrong (``"fault"`` names the fault).  They fail in every round and
count as failed, so the share of failed operations is the same in every run
and a fix shows as fewer failures.

This module imports no nsbf code: the reference process and the measured
process both make the plan from it.
"""

from __future__ import annotations

import math
import random

import numpy as np

PI = math.pi

#: the prebuilt models of ``spectrum`` (b = pi, M = 1998, N = 25)
SPECTRUM_MODELS = {
    "exp": "exp(x)",
    "paine": "1/(x+0.1)^2",
    "neg09": "-0.9",
    "neg3": "-3",
}
#: range of each potential on [0, pi], for the bound n^2 + min q <= lam_n <= n^2 + max q
SPECTRUM_Q_RANGE = {
    "exp": (1.0, math.exp(PI)),
    "paine": (1.0 / (PI + 0.1) ** 2, 100.0),
    "neg09": (-0.9, -0.9),
    "neg3": (-3.0, -3.0),
}
#: every request on q = -3 fails today: the scan starts at omega > 0 and misses
#: lambda_1 = -2.  Its requests do not depend on the seed.
SPECTRUM_KNOWN_FAULT = "neg3"
SPECTRUM_FAULT = "lambda_1 < 0 missed: the scan starts at omega > 0 (spectral.py)"
SPECTRUM_TRUNCATIONS = (15, 25)
#: requests per potential and truncation: mostly the improved representation
SPECTRUM_REPS = (("improved", 6), ("plain", 2))
SPECTRUM_COUNT_RANGE = (20, 460)
SPECTRUM_FAULT_SLOTS = (("improved", 75), ("improved", 185), ("improved", 295),
                        ("plain", 405))

#: the prebuilt models of ``solve_grid`` (b = pi, M = 1998, N = 25); the
#: complex constant is handed to build_model as an array of samples
SOLVE_MODELS = {
    "paine": {"q": "1/(x+0.1)^2", "ref": ("inverse_square", {"c": 1.0, "a": 0.1})},
    "rconst": {"q": "-1.5", "ref": ("constant", {"c": [-1.5, 0.0]})},
    "cconst": {"q": [1.0, 2.0], "ref": ("constant", {"c": [1.0, 2.0]})},
}
SOLVE_REQUESTS_PER_MODEL = 4
SOLVE_PAIRS = 600
SOLVE_OMEGA_RANGE = (0.5, 2000.0)
SOLVE_COMPLEX_SHARE = 0.3
SOLVE_PLAIN_SHARE = 0.25
#: seeded eval_uN_tilde pairs have |omega| <= 20: above, it loses all digits
#: near small x on some seeds; SOLVE_FAULTS holds a fixed failing pair
SOLVE_PLAIN_OMEGA_MAX = 20.0
#: |Im omega| * b stays within this
SOLVE_IM_TIMES_B = 50.0
#: seeded nodes start at M/50: coefficients below x = b/100 are set to their
#: x -> 0 limit, which gives wrong values there; SOLVE_FAULTS holds fixed
#: pairs below it
SOLVE_FIRST_NODE_FRACTION = 1.0 / 50.0
#: seed-free requests that fail today: (model, fault, pairs [re, im, j, plain])
SOLVE_FAULTS = (
    ("paine", "coefficients below x = b/100 set to their x -> 0 limit (coefficients.py)",
     [[w, 0.0, j, False] for w in (1.3923, 5.0) for j in range(1, 20)]),
    ("rconst", "eval_uN_tilde loses all digits at large omega near small x (solution.py)",
     [[841.65, 0.0, 27, True]]),
)

GRID_M = 1998
GRID_N = 25

#: the family of the build of each M rank, smallest M first: 6 expression
#: and 3 tabulated inverse-square potentials, 2 negative and 2 positive
#: constants given as expressions, 3 complex constants given as arrays
BUILD_FAMILIES = (
    "inverse_square", "table_complex", "constant_neg", "inverse_square",
    "table_real", "constant_pos", "inverse_square", "table_complex",
    "inverse_square", "table_real", "constant_neg", "inverse_square",
    "table_complex", "constant_pos", "inverse_square", "table_real",
)
#: the build of M rank i gets N rank BUILD_N_RANK[i], a fixed Latin pairing,
#: so the largest working set M * (N + 10) is the same cell in every round
BUILD_N_RANK = tuple((7 * i + 3) % len(BUILD_FAMILIES) for i in range(len(BUILD_FAMILIES)))
BUILD_M_RANGE = (600, 3000)
BUILD_N_RANGE = (10, 40)
BUILD_B_CYCLE = (PI, 2.0, PI, 4.5)
#: inverse-square family c/(x+a)^2: the steepest (smallest a) goes with the
#: largest N, so every build meets U_TOL at its truncation
BUILD_INVERSE_SQUARE_C = (0.25, 2.0)
BUILD_INVERSE_SQUARE_A = (0.15, 1.0)
#: every built model is checked at these omegas and at x = b/2 and x = b
BUILD_CHECK_OMEGAS = ((2.5, 0.0), (40.0, 0.0), (600.0, 0.0), (30.0, 5.0))
#: a seed-free build that fails today: q = -4 on [0, pi] with M = 1998 has the
#: zeros of f0 = cos 2x between nodes, so the route test passes it and the
#: primary route divides by f0^2
BUILD_FAULT = {"family": "constant_neg_between_nodes", "q": "-4",
               "ref": ("constant", {"c": [-4.0, 0.0]}), "M": 1998, "N": 25, "b": PI,
               "fault": "f0 vanishes between nodes: only nodes are tested (formal_powers.py)"}

#: the oracle's potentials, all given as expressions.  No constant: the
#: oracle's Magnus steps are exact for a constant q, so its sweeps take a
#: handful of steps and would split the request times into two clusters.
REFERENCE_POTENTIALS = {
    "paine": {"q": "1/(x+0.1)^2", "ref": ("inverse_square", {"c": 1.0, "a": 0.1})},
    "isq2": {"q": "2/(x+0.5)^2", "ref": ("inverse_square", {"c": 2.0, "a": 0.5})},
    "exp": {"q": "exp(x)", "ref": None},
}
#: sweeps per (kind, potential) cell; kinds are u(omega, b) and s(lam, b),
#: potentials the two inverse-square ones
REFERENCE_SWEEPS = 8
REFERENCE_BATCH = (6, 24)
REFERENCE_OMEGA_MAX = (15.0, 150.0)
REFERENCE_LAMBDA_MAX = (200.0, 20000.0)
#: the eigenvalue blocks: (potential, indices, relative offsets of the seeds
#: from the true eigenvalues).  The offsets are what a series solve at N = 15
#: leaves.  The blocks do not depend on the seed: the oracle's sweep count
#: for a block swings by a third with its seeds, which would swamp the
#: round's time.
REFERENCE_BLOCKS = (
    ("paine", (2, 3), (2e-8, -2e-8)),
    ("exp", (5, 6), (-2e-8, 2e-8)),
)

WORKLOADS = ("spectrum", "solve_grid", "build_sweep", "reference")

#: share of its stratum over which a seeded draw moves: the median request of a
#: round is a draw near the middle, and the narrower the jitter the less it
#: moves from seed to seed
STRATUM_JITTER = 0.5


def symmetric_strata(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1], one per stratum, symmetric about 1/2, shuffled.

    Each draw falls in the middle half of its stratum (STRATUM_JITTER).
    """
    vals = [0.5] * n
    for k in range(n // 2):
        v = (k + 0.5 + STRATUM_JITTER * (rng.random() - 0.5)) / n
        vals[k], vals[n - 1 - k] = v, 1.0 - v
    rng.shuffle(vals)
    return vals


def _log_between(v: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + v * (math.log(hi) - math.log(lo)))


def _int_between(v: float, lo: int, hi: int) -> int:
    return min(hi, lo + int(v * (hi - lo + 1)))


def node_x(j: int, b: float, M: int) -> float:
    """x_j as the solver's grid forms it: j * (b/M) in extended precision."""
    return float(np.longdouble(j) * (np.longdouble(b) / M))


# --- spectrum ---------------------------------------------------------------

def _spectrum_round(rng: random.Random) -> list[dict]:
    requests = []
    lo, hi = SPECTRUM_COUNT_RANGE
    seeded = [p for p in SPECTRUM_MODELS if p != SPECTRUM_KNOWN_FAULT]
    for n_trunc in SPECTRUM_TRUNCATIONS:
        # counts are stratified within each (potential, truncation,
        # representation) cell, so every potential gets the same share of
        # eigenvalues and every cell the same work in every round
        for p in seeded:
            for rep, slots in SPECTRUM_REPS:
                for v in symmetric_strata(rng, slots):
                    requests.append({"model": p, "N": n_trunc, "rep": rep,
                                     "count": _int_between(v, lo, hi)})
        for rep, count in SPECTRUM_FAULT_SLOTS:
            requests.append({"model": SPECTRUM_KNOWN_FAULT, "N": n_trunc,
                             "rep": rep, "count": count, "fault": SPECTRUM_FAULT})
    rng.shuffle(requests)
    return requests


# --- solve_grid ---------------------------------------------------------------

def _solve_request(rng: random.Random, model: str) -> dict:
    n = SOLVE_PAIRS
    b, M = PI, GRID_M
    radii = [_log_between(v, *SOLVE_OMEGA_RANGE) for v in symmetric_strata(rng, n)]
    first = int(M * SOLVE_FIRST_NODE_FRACTION)
    nodes = [_int_between(v, first, M) for v in symmetric_strata(rng, n)]
    complex_idx = set(rng.sample(range(n), int(SOLVE_COMPLEX_SHARE * n)))
    low = [i for i in range(n) if radii[i] <= SOLVE_PLAIN_OMEGA_MAX]
    plain_idx = set(rng.sample(low, int(SOLVE_PLAIN_SHARE * n)))
    pairs = []
    for i in range(n):
        r = radii[i]
        im = 0.0
        if i in complex_idx:
            im = rng.choice((-1.0, 1.0)) * rng.random() * min(0.9 * r, SOLVE_IM_TIMES_B / b)
        re = math.sqrt(r * r - im * im)
        pairs.append([re, im, nodes[i], i in plain_idx])
    return _with_x({"model": model, "pairs": pairs})


def _with_x(req: dict) -> dict:
    """Each pair [re, im, j, plain] becomes [re, im, j, x_j, plain]."""
    req["pairs"] = [[re, im, j, node_x(j, PI, GRID_M), plain]
                    for re, im, j, plain in req["pairs"]]
    return req


def _solve_round(rng: random.Random) -> list[dict]:
    requests = [_solve_request(rng, m) for m in SOLVE_MODELS
                for _ in range(SOLVE_REQUESTS_PER_MODEL)]
    requests += [_with_x({"model": model, "pairs": [list(p) for p in pairs], "fault": fault})
                 for model, fault, pairs in SOLVE_FAULTS]
    rng.shuffle(requests)
    return requests


# --- build_sweep --------------------------------------------------------------

def _build_round(rng: random.Random) -> list[dict]:
    n = len(BUILD_FAMILIES)
    m_lo, m_hi = BUILD_M_RANGE
    Ms = sorted(6 * _int_between(v, m_lo // 6, m_hi // 6) for v in symmetric_strata(rng, n))
    Ns = sorted(_int_between(v, *BUILD_N_RANGE) for v in symmetric_strata(rng, n))
    cells = [(family, M, Ns[BUILD_N_RANK[i]], BUILD_B_CYCLE[i % len(BUILD_B_CYCLE)])
             for i, (family, M) in enumerate(zip(BUILD_FAMILIES, Ms))]

    def draws(family, lo, hi):
        k = sum(1 for f in BUILD_FAMILIES if f in family)
        return [lo + v * (hi - lo) for v in symmetric_strata(rng, k)]

    isq = ("inverse_square", "table_real")
    isq_c = draws(isq, *BUILD_INVERSE_SQUARE_C)
    # smallest a to the largest N
    isq_a = sorted(draws(isq, *BUILD_INVERSE_SQUARE_A))
    by_n = sorted((i for i, cell in enumerate(cells) if cell[0] in isq),
                  key=lambda i: -cells[i][2])
    a_of = {i: isq_a[k] for k, i in enumerate(by_n)}
    neg_at = draws(("constant_neg",), 0.3, 1.0)
    pos_c = draws(("constant_pos",), 0.5, 6.0)
    cplx_re = draws(("table_complex",), -3.0, 3.0)
    cplx_im = draws(("table_complex",), 1.0, 3.0)

    requests = []
    for i, (family, M, N, b) in enumerate(cells):
        req = {"family": family, "M": M, "N": N, "b": b}
        if family == "constant_neg":
            # f0 = cos(sqrt(-c) x) has its first zero on a grid node, so the
            # fallback route is taken; zeros between nodes hit a fault (BUILD_FAULT)
            j = min(M, max(1, round(neg_at.pop() * M)))
            c = -(PI / (2.0 * (j * b / M))) ** 2
            req.update(q=repr(c), ref=("constant", {"c": [c, 0.0]}))
        elif family == "constant_pos":
            c = pos_c.pop()
            req.update(q=repr(c), ref=("constant", {"c": [c, 0.0]}))
        elif family in isq:
            c, a = isq_c.pop(), a_of[i]
            req["ref"] = ("inverse_square", {"c": c, "a": a})
            req["q"] = f"{c!r}/(x+{a!r})^2" if family == "inverse_square" else None
        else:
            c = [cplx_re.pop(), rng.choice((-1.0, 1.0)) * cplx_im.pop()]
            req.update(q=None, ref=("constant", {"c": c}))
        requests.append(req)
    requests.append(dict(BUILD_FAULT))
    for req in requests:
        M, b = req["M"], req["b"]
        req["checks"] = [[w_re, w_im, j, node_x(j, b, M)]
                         for w_re, w_im in BUILD_CHECK_OMEGAS for j in (M // 2, M)]
    rng.shuffle(requests)
    return requests


# --- reference ----------------------------------------------------------------

def _reference_round(rng: random.Random) -> list[dict]:
    requests = []
    for kind in ("solution", "char"):
        for pot in ("paine", "isq2"):
            sizes = [_int_between(v, *REFERENCE_BATCH)
                     for v in symmetric_strata(rng, REFERENCE_SWEEPS)]
            tops = symmetric_strata(rng, REFERENCE_SWEEPS)
            for size, top in zip(sizes, tops):
                if kind == "solution":
                    w_max = _log_between(top, *REFERENCE_OMEGA_MAX)
                    pts = [_log_between(v, 1.0, w_max) for v in symmetric_strata(rng, size)]
                else:
                    lam_max = _log_between(top, *REFERENCE_LAMBDA_MAX)
                    pts = [1.0 + v * (lam_max - 1.0) for v in symmetric_strata(rng, size)]
                requests.append({"kind": kind, "potential": pot, "points": pts})
    for pot, indices, offsets in REFERENCE_BLOCKS:
        requests.append({"kind": "eigen", "potential": pot,
                         "indices": list(indices), "offsets": list(offsets)})
    rng.shuffle(requests)
    return requests


_ROUNDS = {
    "spectrum": _spectrum_round,
    "solve_grid": _solve_round,
    "build_sweep": _build_round,
    "reference": _reference_round,
}


def make_round(workload: str, seed: int) -> list[dict]:
    """The requests of one round of ``workload``; each gets an ``id``."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    requests = _ROUNDS[workload](random.Random(f"{workload}:{seed}"))
    for i, req in enumerate(requests):
        req["id"] = i
    return requests


# --- the points whose references the reference process computes -----------------

def solution_points(workload: str, requests: list[dict]) -> dict:
    """key -> (kind, params, omegas as [re, im], xs) per u value."""
    out = {}
    for req in requests:
        key = str(req["id"])
        if workload == "solve_grid":
            kind, params = SOLVE_MODELS[req["model"]]["ref"]
            out[key] = (kind, params, [p[:2] for p in req["pairs"]],
                        [p[3] for p in req["pairs"]])
        elif workload == "build_sweep":
            kind, params = req["ref"]
            out[key] = (kind, params, [c[:2] for c in req["checks"]],
                        [c[3] for c in req["checks"]])
        elif workload == "reference" and req["kind"] == "solution":
            # the oracle's sweeps end at x = b
            kind, params = REFERENCE_POTENTIALS[req["potential"]]["ref"]
            out[key] = (kind, params, [[w, 0.0] for w in req["points"]],
                        [PI] * len(req["points"]))
    return out


def char_points(workload: str, requests: list[dict]) -> dict:
    """key -> (kind, params, lambdas, b) for every s value."""
    out = {}
    if workload != "reference":
        return out
    for req in requests:
        if req["kind"] == "char":
            kind, params = REFERENCE_POTENTIALS[req["potential"]]["ref"]
            out[str(req["id"])] = (kind, params, req["points"], PI)
    return out
