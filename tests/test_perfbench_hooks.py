"""The names the benchmark's tracer (perfbench/spans.py) looks up in nsbf.

``python3 perfbench/run.py --trace 1`` wraps nsbf's functions by name and
reads attributes of every built model; a rename in nsbf would break it with
an AttributeError that no other test sees.
"""

import importlib
import importlib.util
import math
from pathlib import Path

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
