"""The names the benchmark (perfbench/) calls and looks up in nsbf.

``python3 perfbench/run.py --trace 1`` wraps nsbf's functions by name and
reads attributes of every built model, and its workloads call nsbf's
functions in fixed forms; a rename or a changed signature in nsbf would
break it with an error that no other test sees.
"""

import cmath
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def owner_modules(spans):
    owners = {owner for _, names, _ in spans.WRAPPED for owner in names}
    return {name: importlib.import_module(f"nsbf.{name}") for name in owners}


def test_every_wrapped_name_resolves(spans, owner_modules):
    for span, owners, attr in spans.WRAPPED:
        for owner in owners:
            assert callable(getattr(owner_modules[owner], attr, None)), (
                f"{span}: nsbf.{owner} has no {attr}"
            )


def test_traced_build_reads_model_counts(spans, owner_modules):
    tracer = spans.Tracer()
    tracer.install(owner_modules)
    try:
        owner_modules["solution"].build_model("exp(x)", math.pi, 102, 4)
    finally:
        tracer.uninstall()
    assert tracer.counts["solution.models"] == 1
    assert "coefficients.flagged_beta_at_b" in tracer.counts
    assert "coefficients.zero_alpha_rows_at_b" in tracer.counts
    assert "solution.build_model" in tracer.names
    assert not hasattr(owner_modules["solution"].build_model, "__wrapped__")


def test_traced_build_sees_the_integrals(spans, owner_modules):
    # grid.picard_integrals and grid.indefinite_integral_ms count the
    # integral spans under solve_homogeneous and formal_powers; a call that
    # bypassed the module-level names would leave them reading 0
    tracer = spans.Tracer()
    tracer.install(owner_modules)
    try:
        owner_modules["solution"].build_model("exp(x)", math.pi, 102, 4)
    finally:
        tracer.uninstall()
    arrays = tracer.arrays()
    names = list(arrays["names"])
    span_name = [names[i] for i in arrays["name_id"]]
    parent_name = [span_name[p] if p >= 0 else None for p in arrays["parent"]]
    under = {parent for name, parent in zip(span_name, parent_name)
             if name == "grid.indefinite_integral"}
    assert {"grid.solve_homogeneous", "formal_powers.formal_powers"} <= under
    metrics = spans.layer_metrics(arrays, tracer.counts, 0, 0.0)
    assert metrics["grid.picard_integrals"]["value"] > 0
    assert metrics["grid.indefinite_integral_ms"]["value"] > 0


def test_workload_calls_keep_their_form():
    # every call perfbench/workloads.py makes into nsbf, in the form it
    # makes it (positional or by keyword), on small models
    nsbf = {name: importlib.import_module(f"nsbf.{name}")
            for name in ("expr", "solution", "spectral", "oracle")}
    solution, spectral = nsbf["solution"], nsbf["spectral"]

    # spectrum: eigenvalues of a prebuilt model, truncated per request
    model = solution.build_model("exp(x)", math.pi, 102, 8)
    problem = spectral.EigProblem(model.with_truncation(5),
                                  representation="improved")
    results = spectral.find_eigenvalues(problem, 3)
    assert [r.index for r in results] == [1, 2, 3]
    assert all(r.lam > r.index**2 for r in results)

    # solve_grid: a complex constant as samples, its surrogate, and an
    # envelope for each value that eval_auto takes from the improved form
    model = solution.build_model(np.full(103, complex(1.0, 2.0)), math.pi,
                                 102, 8)
    eps = solution.epsN_surrogate(model)
    switch = model.omega_switch
    assert switch == 1.0
    for omega in (0.5, 7.5, 3.0 + 2.0j):
        u = solution.eval_auto(model, omega, 51)
        if abs(omega) >= switch:
            assert u == solution.eval_uN(model, omega, 51)
            assert solution.error_envelope(model, omega, 51, eps) >= 0.0
        else:
            assert u == solution.eval_uN_tilde(model, omega, 51)

    # build_sweep: a real potential as float samples, checked by eval_auto
    x = np.arange(103) * (math.pi / 102)
    model = solution.build_model(1.0 / (x + 0.1) ** 2, math.pi, 102, 8)
    assert cmath.isfinite(solution.eval_auto(model, complex(4.0, 1.0), 102))

    # reference: the oracle, handed a parsed expression tree
    expr, oracle = nsbf["expr"], nsbf["oracle"]
    tree = expr.parse("exp(x)")
    q = lambda x: expr.evaluate(tree, x)
    u = oracle.solution_reference(q, math.pi, np.array([2.0]))
    s = oracle.characteristic_reference(q, math.pi, np.array([5.0]))
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(s))
    lam = np.array([r.lam for r in results])
    ref = oracle.eigenvalues_reference(q, math.pi, lam)
    assert np.all(np.abs(ref - lam) <= 1e-2 * lam)
