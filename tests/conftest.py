import math

import pytest

from nsbf import build_model

PI = math.pi

#: potentials nested past what CPython's parser or a recursive walk takes;
#: each used to end in a RecursionError, in parse or in evaluate
HOSTILE_NESTINGS = {
    "parens-300": "(" * 300 + "x" + ")" * 300,
    "minus-2000": "-" * 2000 + "x",
    "sin-300": "sin(" * 300 + "x" + ")" * 300,
    "sum-3000": "+".join(["1"] * 3000),
}


#: the session's shared models, as they are built
_SESSION_MODELS = []


def _session_model(*args):
    model = build_model(*args)
    _SESSION_MODELS.append(model)
    return model


@pytest.fixture(autouse=True)
def empty_kept_scan_windows():
    """Every test starts with the session models keeping no scan window
    (``SolutionModel._scan``), so that no result depends on which tests ran
    before it."""
    for model in _SESSION_MODELS:
        model._scan.clear()


@pytest.fixture(scope="session")
def model_zero():
    return _session_model("0", PI, 1998, 10)


@pytest.fixture(scope="session")
def model_one():
    return _session_model("1", PI, 1998, 25)


@pytest.fixture(scope="session")
def model_exp():
    return _session_model("exp(x)", PI, 1998, 25)


def const_q_solution(q0: float, omega: float, x: float) -> complex:
    """Closed-form u(omega, x) for constant potential q0."""
    s = omega * omega - q0
    if s > 0:
        w = math.sqrt(s)
        return math.cos(w * x) + 1j * omega * math.sin(w * x) / w
    if s == 0:
        return 1.0 + 1j * omega * x
    w = math.sqrt(-s)
    return math.cosh(w * x) + 1j * omega * math.sinh(w * x) / w
