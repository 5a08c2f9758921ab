"""The four closed-loop clients: set-up, one request, and its check.

Each workload object is made once per run.  ``build`` makes one of its
``PREBUILT`` objects, such as a model (timed as set-up, and kept in
``prebuilt``), ``prepare`` makes the remaining inputs (untimed),
``run`` serves one request (timed), and ``check`` compares its output with
references made apart from the series code.  ``end_round`` checks the
properties that need a whole round.  A request that carries a ``"fault"``
fails today by design of its inputs (plan.py) and counts as failed.
"""

from __future__ import annotations

import math

import numpy as np

import plan

#: a computed value passes when |computed - ref| / max(1, |ref|) stays below this
U_TOL = 1e-3
#: oracle sweeps are checked tighter: the integrator works at rtol 1e-12
ORACLE_TOL = 1e-7
#: oracle eigenvalues against the stored table, relative
ORACLE_EIG_TOL = 1e-9
#: the truncation error of the improved form times |omega|^2 may not grow
#: from the low half of the omega range to the high half by more than this
ENVELOPE_GROWTH = 4.0
#: absolute floor, in units of error * |omega|^2, under which growth is round-off
SCALED_FLOOR = 1e-6


def relative_error(computed, ref) -> np.ndarray:
    """|computed - ref| / max(1, |ref|)."""
    return np.abs(np.asarray(computed) - np.asarray(ref)) / np.maximum(1.0, np.abs(ref))


def digits(computed, ref) -> np.ndarray:
    """The relative error in correct digits, clipped at 16."""
    with np.errstate(divide="ignore"):
        return np.minimum(16.0, -np.log10(relative_error(computed, ref)))


def _complex_refs(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


class Workload:
    """The defaults: nothing to build or prepare, no round property."""

    #: names of the objects built in set-up
    PREBUILT = ()

    def __init__(self, nsbf, requests, refs, table):
        self.nsbf = nsbf
        self.requests = requests
        self.refs = refs
        self.table = table
        self.prebuilt = {}

    def build(self, name):
        """Make the prebuilt object ``name``."""
        raise NotImplementedError

    def prepare(self):
        pass

    def is_known_fault(self, req) -> bool:
        return "fault" in req

    def end_round(self) -> bool:
        return True


class Spectrum(Workload):
    """Eigenvalue requests on prebuilt models of four potentials."""

    PREBUILT = tuple(plan.SPECTRUM_MODELS)

    def build(self, name):
        return self.nsbf["solution"].build_model(
            plan.SPECTRUM_MODELS[name], plan.PI, plan.GRID_M, plan.GRID_N)

    def run(self, req):
        spectral = self.nsbf["spectral"]
        model = self.prebuilt[req["model"]].with_truncation(req["N"])
        problem = spectral.EigProblem(model, representation=req["rep"])
        return spectral.find_eigenvalues(problem, req["count"])

    def check(self, req, results):
        count = req["count"]
        lam = np.array([r.lam for r in results])
        index = np.array([r.index for r in results])
        ref = np.array(self.table[req["model"]][:count])
        if len(results) != count or not np.array_equal(index, np.arange(1, count + 1)):
            return False, 0, None
        n2 = np.arange(1, count + 1, dtype=float) ** 2
        q_min, q_max = plan.SPECTRUM_Q_RANGE[req["model"]]
        slack = U_TOL * np.maximum(1.0, n2)
        in_bounds = (n2 + q_min - slack <= lam) & (lam <= n2 + q_max + slack)
        ok = bool(np.all(relative_error(lam, ref) <= U_TOL) and np.all(in_bounds))
        return ok, count, digits(lam, ref)


class SolveGrid(Workload):
    """Batches of u(omega, x) evaluations and error envelopes."""

    PREBUILT = tuple(plan.SOLVE_MODELS)

    def build(self, name):
        """The model and its epsN surrogate."""
        solution = self.nsbf["solution"]
        q = plan.SOLVE_MODELS[name]["q"]
        if not isinstance(q, str):
            q = np.full(plan.GRID_M + 1, complex(*q))
        model = solution.build_model(q, plan.PI, plan.GRID_M, plan.GRID_N)
        return model, solution.epsN_surrogate(model)

    def prepare(self):
        self.refs = {k: _complex_refs(v) for k, v in self.refs.items()}
        self.inputs = {req["id"]: [(complex(re, im) if im else re, j, plain)
                                   for re, im, j, _, plain in req["pairs"]]
                       for req in self.requests}
        self._scaled = {name: [] for name in self.prebuilt}

    def run(self, req):
        solution = self.nsbf["solution"]
        eval_auto = solution.eval_auto
        eval_plain = solution.eval_uN_tilde
        envelope = solution.error_envelope
        model, eps = self.prebuilt[req["model"]]
        switch = model.omega_switch
        values = []
        envelopes = []
        for omega, j, plain in self.inputs[req["id"]]:
            if plain:
                values.append(eval_plain(model, omega, j))
                envelopes.append(math.nan)
            else:
                values.append(eval_auto(model, omega, j))
                envelopes.append(envelope(model, omega, j, eps) if abs(omega) >= switch
                                 else math.nan)
        return values, envelopes

    def check(self, req, output):
        values, envelopes = np.asarray(output[0]), np.asarray(output[1])
        ref = self.refs[str(req["id"])]
        pairs = np.asarray([p[:4] for p in req["pairs"]], dtype=float)
        omega = np.abs(pairs[:, 0] + 1j * pairs[:, 1])
        x = pairs[:, 3]
        err = np.abs(values - ref)
        ok = bool(np.all(relative_error(values, ref) <= U_TOL))
        # round-off of the phase omega * x, which no representation avoids
        allowance = 1e-14 * (1.0 + omega * x) * np.maximum(1.0, np.abs(ref))
        has_env = ~np.isnan(envelopes)
        env = envelopes[has_env]
        ok &= bool(np.all(np.isfinite(env)) and np.all(env >= 0.0))
        ok &= bool(np.all(err[has_env] <= env + allowance[has_env]))
        real_improved = has_env & (pairs[:, 1] == 0.0)
        scaled = np.maximum(0.0, err - allowance) * omega**2
        if not self.is_known_fault(req):
            self._scaled[req["model"]].append(
                np.stack((omega[real_improved], scaled[real_improved])))
        n = len(values)
        return ok, n if ok else 0, digits(values, ref)

    def end_round(self) -> bool:
        """error * |omega|^2 of the improved form does not grow with |omega|."""
        # the geometric middle of the improved form's range [1, omega_max]
        split = math.sqrt(plan.SOLVE_OMEGA_RANGE[1])
        ok = True
        for name, parts in self._scaled.items():
            if not parts:
                continue
            omega, scaled = np.concatenate(parts, axis=1)
            low, high = scaled[omega < split], scaled[omega >= split]
            if low.size and high.size:
                ok &= bool(high.max() <= ENVELOPE_GROWTH * low.max() + SCALED_FLOOR)
            parts.clear()
        return ok


class BuildSweep(Workload):
    """One build_model per request over a seeded mix of potentials and sizes."""

    def prepare(self):
        self.refs = {k: _complex_refs(v) for k, v in self.refs.items()}
        self.inputs = {}
        for req in self.requests:
            q = req["q"]
            if q is None:
                M, b = req["M"], req["b"]
                kind, params = req["ref"]
                if kind == "constant":
                    q = np.full(M + 1, complex(*params["c"]))
                else:
                    x = np.arange(M + 1, dtype=np.longdouble) * (np.longdouble(b) / M)
                    q = (params["c"] / (x.astype(float) + params["a"]) ** 2)
            self.inputs[req["id"]] = q

    def run(self, req):
        return self.nsbf["solution"].build_model(
            self.inputs[req["id"]], req["b"], req["M"], req["N"])

    def check(self, req, model):
        eval_auto = self.nsbf["solution"].eval_auto
        values = [eval_auto(model, complex(w_re, w_im) if w_im else w_re, j)
                  for w_re, w_im, j, _ in req["checks"]]
        ref = self.refs[str(req["id"])]
        ok = bool(np.all(relative_error(values, ref) <= U_TOL))
        return ok, 1 if ok else 0, digits(values, ref)


class Reference(Workload):
    """Oracle sweeps and small eigenvalue blocks with an expression-tree q."""

    PREBUILT = tuple(plan.REFERENCE_POTENTIALS)

    def build(self, name):
        """The callable `nsbf bench` hands the oracle: the parsed tree,
        evaluated through the module attribute at every call."""
        expr = self.nsbf["expr"]
        tree = expr.parse(plan.REFERENCE_POTENTIALS[name]["q"])
        return lambda x: expr.evaluate(tree, x)

    def prepare(self):
        self.inputs = {}
        for req in self.requests:
            if req["kind"] == "eigen":
                ref = np.array([self.table[req["potential"]][n - 1] for n in req["indices"]])
                seeds = ref * (1.0 + np.asarray(req["offsets"]))
                self.inputs[req["id"]] = (seeds, ref)
            else:
                self.inputs[req["id"]] = (np.asarray(req["points"]), None)

    def run(self, req):
        oracle = self.nsbf["oracle"]
        q = self.prebuilt[req["potential"]]
        points = self.inputs[req["id"]][0]
        if req["kind"] == "solution":
            return oracle.solution_reference(q, plan.PI, points)
        if req["kind"] == "char":
            return oracle.characteristic_reference(q, plan.PI, points)
        return oracle.eigenvalues_reference(q, plan.PI, points)

    def check(self, req, values):
        values = np.asarray(values)
        if req["kind"] == "eigen":
            ref = self.inputs[req["id"]][1]
            ok = bool(np.all(np.abs(values - ref) <= ORACLE_EIG_TOL * np.abs(ref)))
            return ok, len(ref) if ok else 0, digits(values, ref)
        ref = self.refs[str(req["id"])]
        ref = _complex_refs(ref) if req["kind"] == "solution" else np.asarray(ref)
        ok = bool(np.all(relative_error(values, ref) <= ORACLE_TOL))
        return ok, 0, digits(values, ref)


WORKLOADS = {
    "spectrum": Spectrum,
    "solve_grid": SolveGrid,
    "build_sweep": BuildSweep,
    "reference": Reference,
}
