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
