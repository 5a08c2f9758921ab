"""Spans recorded from outside nsbf, by wrapping its public functions at the
places where they are looked up when called.

nsbf modules call one another through module globals (``from .bessel import
spherical_j_sequence`` binds a global in ``solution``), so replacing the
global in the calling module, and the attribute of the defining module,
catches every call without touching nsbf code.  Each span records its name,
start, end, parent span and request id; spans stay in memory in flat arrays
and are written out when the run ends.  Counts that only the return value
carries (roots found, oracle steps, flagged coefficient rows) are read from
it at the same boundary.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

# (name of the span, modules whose global is replaced, attribute name)
# The span name is "<layer>.<function>".
WRAPPED = (
    ("spectral.find_eigenvalues", ("spectral",), "find_eigenvalues"),
    ("spectral.char_function", ("spectral",), "char_function"),
    ("solution.sine_solution", ("solution", "spectral"), "sine_solution"),
    ("solution.build_model", ("solution",), "build_model"),
    ("solution.eval_auto", ("solution",), "eval_auto"),
    ("solution.eval_uN", ("solution",), "eval_uN"),
    ("solution.eval_uN_tilde", ("solution",), "eval_uN_tilde"),
    ("solution.error_envelope", ("solution",), "error_envelope"),
    ("solution.epsN_surrogate", ("solution",), "epsN_surrogate"),
    ("formal_powers.spps_eval", ("formal_powers", "solution"), "spps_eval"),
    ("formal_powers.formal_powers", ("formal_powers", "solution"), "formal_powers"),
    ("formal_powers.formal_powers_nonvanishing", ("formal_powers", "solution"),
     "formal_powers_nonvanishing"),
    ("bessel.spherical_j_sequence", ("bessel", "solution"), "spherical_j_sequence"),
    ("expr.evaluate", ("expr",), "evaluate"),
    ("grid.sample", ("grid", "solution"), "sample"),
    ("grid.indefinite_integral", ("grid", "formal_powers", "solution"), "indefinite_integral"),
    ("grid.solve_homogeneous", ("grid", "solution"), "solve_homogeneous"),
    ("coefficients.legendre_coeffs", ("coefficients", "solution"), "legendre_coeffs"),
    ("coefficients.beta_coeffs", ("coefficients", "solution"), "beta_coeffs"),
    ("coefficients.build_alpha_table", ("coefficients", "solution"), "build_alpha_table"),
    ("oracle.propagate", ("oracle",), "propagate"),
    ("oracle.solution_reference", ("oracle",), "solution_reference"),
    ("oracle.characteristic_reference", ("oracle",), "characteristic_reference"),
    ("oracle.eigenvalues_reference", ("oracle",), "eigenvalues_reference"),
)


class Tracer:
    """In-memory span store plus the counts read from return values."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.request_id = -1  # -1 while setting up
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        counter = _COUNTERS.get(name)
        perf = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                stack.pop()
            if counter is not None:
                counter(self.counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, nsbf_modules: dict):
        """Wrap every function in WRAPPED; ``nsbf_modules`` maps short names
        ("solution", ...) to the imported nsbf submodules."""
        for name, owners, attr in WRAPPED:
            original = getattr(nsbf_modules[owners[0]], attr)
            wrapped = self._span_wrapper(name, original)
            for owner in owners:
                module = nsbf_modules[owner]
                self._undo.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
        }

    def write(self, path: str):
        np.savez_compressed(path, **self.arrays())


def _count_roots(counts, result):
    counts["spectral.roots"] += len(result)


def _count_build(counts, model):
    M = model.grid.M
    counts["coefficients.flagged_beta_at_b"] += int(np.count_nonzero(model.beta.flags[:, M]))
    counts["coefficients.zero_alpha_rows_at_b"] += int(
        np.count_nonzero(model.alpha.alpha[:, M] == 0))
    counts["solution.models"] += 1


def _count_steps(counts, result):
    counts["oracle.steps"] += result[1]


def _count_eigen_roots(counts, result):
    counts["oracle.roots"] += len(result)


_COUNTERS = {
    "spectral.find_eigenvalues": _count_roots,
    "solution.build_model": _count_build,
    "oracle.propagate": _count_steps,
    "oracle.eigenvalues_reference": _count_eigen_roots,
}


def self_times(arrays: dict) -> np.ndarray:
    """Each span's duration minus the part its child spans cover."""
    dur = arrays["end"] - arrays["start"]
    child = np.zeros_like(dur)
    parent = arrays["parent"]
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def top_level(parent: np.ndarray) -> np.ndarray:
    """Index of each span's outermost ancestor (itself at the top level)."""
    root = np.where(parent >= 0, parent, np.arange(parent.size))
    while True:
        up = parent[root]
        nxt = np.where(up >= 0, up, root)
        if np.array_equal(nxt, root):
            return root
        root = nxt


#: per-layer metrics of the traced run: name -> unit
PER_LAYER = {
    "spectral.char_evals_per_root": "count/root",
    "spectral.self_ms": "ms/req",
    "solution.eval_calls": "count/req",
    "solution.eval_self_us": "us/call",
    "solution.envelope_us": "us/call",
    "solution.build_model_ms": "ms/build",
    "bessel.calls": "count/req",
    "bessel.us_per_call": "us/call",
    "expr.evaluate_calls": "count/req",
    "expr.evaluate_us": "us/call",
    "grid.sample_ms": "ms/build",
    "grid.indefinite_integral_ms": "ms/build",
    "grid.solve_homogeneous_ms": "ms/build",
    "grid.picard_integrals": "count/build",
    "formal_powers.ms": "ms/build",
    "coefficients.legendre_ms": "ms/build",
    "coefficients.beta_ms": "ms/build",
    "coefficients.alpha_ms": "ms/build",
    "coefficients.flagged_beta_at_b": "count/build",
    "coefficients.zero_alpha_rows_at_b": "count/build",
    "oracle.sweeps_per_request": "count/req",
    "oracle.sweeps_per_root": "count/root",
    "oracle.steps_per_sweep": "count/sweep",
    "oracle.us_per_step": "us/step",
    "trace.overhead_pct": "%",
}

#: leaf evaluators of the solution layer, and everything of that layer that
#: runs around them during evaluation
_EVALUATORS = ("solution.eval_uN", "solution.eval_uN_tilde", "formal_powers.spps_eval")
_EVAL_LAYER = _EVALUATORS + ("solution.eval_auto", "solution.sine_solution")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(arrays: dict, counts: dict, n_requests: int, overhead_pct: float) -> dict:
    """The PER_LAYER metrics from the spans of one traced run.

    Per-request figures count spans of the timed requests only; per-build
    figures average over every build_model call, set-up builds included.
    """
    names = list(arrays["names"])
    name_id = arrays["name_id"]
    dur = arrays["end"] - arrays["start"]
    self_t = self_times(arrays)
    in_request = arrays["request"] >= 0
    parent = arrays["parent"]

    def mask(*span_names):
        ids = [names.index(n) for n in span_names if n in names]
        return np.isin(name_id, ids)

    def total(span_names, m=None, use_self=False):
        sel = mask(*span_names) if m is None else mask(*span_names) & m
        return float((self_t if use_self else dur)[sel].sum()), int(sel.sum())

    builds = counts.get("solution.models", 0.0)

    def per_build_ms(*span_names):
        return 1e3 * _ratio(total(span_names)[0], builds)

    find_self, _ = total(("spectral.find_eigenvalues",), in_request, use_self=True)
    _, char_calls = total(("spectral.char_function",), in_request)
    _, eval_calls = total(_EVALUATORS, in_request)
    eval_self, _ = total(_EVAL_LAYER, in_request, use_self=True)
    env_t, env_calls = total(("solution.error_envelope",), in_request)
    build_t, _ = total(("solution.build_model",))
    bessel_t, bessel_calls = total(("bessel.spherical_j_sequence",), in_request)
    expr_t_all, expr_all = total(("expr.evaluate",))
    _, expr_calls = total(("expr.evaluate",), in_request)
    integ = mask("grid.indefinite_integral")
    homog = mask("grid.solve_homogeneous")
    picard = int(np.count_nonzero(integ & (parent >= 0) & np.isin(parent, np.nonzero(homog)[0])))
    sweep_t, sweeps = total(("oracle.propagate",), in_request)
    root = top_level(parent)
    sweeps_in_eig = int(np.count_nonzero(
        mask("oracle.propagate") & mask("oracle.eigenvalues_reference")[root]))
    _, oracle_requests = total(("oracle.solution_reference", "oracle.characteristic_reference",
                                "oracle.eigenvalues_reference"), in_request & (parent < 0))

    values = {
        "spectral.char_evals_per_root": _ratio(char_calls, counts.get("spectral.roots", 0.0)),
        "spectral.self_ms": 1e3 * _ratio(find_self, n_requests),
        "solution.eval_calls": _ratio(eval_calls, n_requests),
        "solution.eval_self_us": 1e6 * _ratio(eval_self, eval_calls),
        "solution.envelope_us": 1e6 * _ratio(env_t, env_calls),
        "solution.build_model_ms": 1e3 * _ratio(build_t, builds),
        "bessel.calls": _ratio(bessel_calls, n_requests),
        "bessel.us_per_call": 1e6 * _ratio(bessel_t, bessel_calls),
        "expr.evaluate_calls": _ratio(expr_calls, n_requests),
        "expr.evaluate_us": 1e6 * _ratio(expr_t_all, expr_all),
        "grid.sample_ms": per_build_ms("grid.sample"),
        "grid.indefinite_integral_ms": per_build_ms("grid.indefinite_integral"),
        "grid.solve_homogeneous_ms": per_build_ms("grid.solve_homogeneous"),
        "grid.picard_integrals": _ratio(picard, builds),
        "formal_powers.ms": per_build_ms("formal_powers.formal_powers",
                                         "formal_powers.formal_powers_nonvanishing"),
        "coefficients.legendre_ms": per_build_ms("coefficients.legendre_coeffs"),
        "coefficients.beta_ms": per_build_ms("coefficients.beta_coeffs"),
        "coefficients.alpha_ms": per_build_ms("coefficients.build_alpha_table"),
        "coefficients.flagged_beta_at_b": _ratio(
            counts.get("coefficients.flagged_beta_at_b", 0.0), builds),
        "coefficients.zero_alpha_rows_at_b": _ratio(
            counts.get("coefficients.zero_alpha_rows_at_b", 0.0), builds),
        "oracle.sweeps_per_request": _ratio(sweeps, oracle_requests),
        "oracle.sweeps_per_root": _ratio(sweeps_in_eig, counts.get("oracle.roots", 0.0)),
        "oracle.steps_per_sweep": _ratio(counts.get("oracle.steps", 0.0), sweeps),
        "oracle.us_per_step": 1e6 * _ratio(sweep_t, counts.get("oracle.steps", 0.0)),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER.items()}
