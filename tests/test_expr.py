import importlib.util
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsbf import ExpressionEvalError, ExpressionSyntaxError
from nsbf.expr import (
    MAX_DEPTH, Binary, Call, Const, Num, Unary, Var, evaluate, parse,
)

from conftest import HOSTILE_NESTINGS

PLAN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "plan.py"


def test_exp_definition():
    assert evaluate(parse("exp(x)"), 1.0) == pytest.approx(
        2.718281828459045, abs=1e-15
    )


def test_polynomial():
    assert evaluate(parse("x^2+1"), 2.0) == 5.0


def test_unary_minus_binds_below_power():
    # cross-checked against a hand precedence table: -x^2 = -(x^2)
    assert evaluate(parse("-x^2"), 3.0) == -9.0
    assert evaluate(parse("(-x)^2"), 3.0) == 9.0


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0.0) == 512.0


def test_zero_and_constants():
    assert evaluate(parse("0"), 17.3) == 0.0
    assert evaluate(parse("exp(x)"), 0.0) == 1.0
    assert evaluate(parse("pi"), 0.0) == math.pi
    assert evaluate(parse("e"), 0.0) == math.e


def test_reference_value_sinc():
    assert evaluate(parse("sin(x)/x"), 1.0) == pytest.approx(
        0.8414709848078965, abs=1e-16
    )


def test_scientific_notation():
    assert evaluate(parse("1.5e-3*x"), 2.0) == pytest.approx(3e-3)


@pytest.mark.parametrize(
    "src", ["", "   ", "1+", "exp", "exp(", "(1+2", "1 2", "x x"]
)
def test_syntax_errors_carry_offset(src):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(src)
    assert err.value.offset >= 0


#: source -> the tree it parses to, or None where it is refused
ACCEPT_REJECT = {
    "x\n+1": Binary("+", Var(), Num(1.0)),
    "x\t*2": Binary("*", Var(), Num(2.0)),
    "5.": Num(5.0),
    ".5": Num(0.5),
    "1.e-3": Num(1e-3),
    "--x": Unary(Unary(Var())),
    "2^-3^2": Binary("^", Num(2.0), Unary(Binary("^", Num(3.0), Num(2.0)))),
    "exp (x)": Call("exp", Var()),
    "00": Num(0.0),
    "x**2": None,
    "+x": None,
    "1_0": None,
    "0x1f": None,
    "1j": None,
    "\uff58+1": None,  # fullwidth x
    "x # c": None,
    "x.real": None,
    "x if x else 1": None,
    "sin(x, 2)": None,
    "pi(x)": None,
    "x\x00": None,
    # integer literals with a leading zero, and non-ASCII digits, were
    # read as numbers once
    "01": None,
    "\u0663": None,  # Arabic-Indic three
    "\uff13*x": None,  # fullwidth three
}


@pytest.mark.parametrize("src", sorted(ACCEPT_REJECT), ids=ascii)
def test_accept_reject(src):
    if ACCEPT_REJECT[src] is not None:
        assert parse(src) == ACCEPT_REJECT[src]
        return
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(src)
    assert 0 <= err.value.offset <= len(src)


@pytest.mark.parametrize("src", HOSTILE_NESTINGS.values(), ids=HOSTILE_NESTINGS)
def test_hostile_nesting_refused(src):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(src)
    assert 0 <= err.value.offset <= len(src)


#: shape -> the source of a tree of the given depth
NESTED = {
    "minus": lambda depth: "-" * (depth - 1) + "x",
    "sum": lambda depth: "+".join(["x"] * depth),
    "power": lambda depth: "^".join(["x"] * depth),
}


@pytest.mark.parametrize("shape", NESTED)
def test_depth_limit(shape):
    values = evaluate(parse(NESTED[shape](MAX_DEPTH)), np.array([0.5, 1.0]))
    assert np.all(np.isfinite(values))
    with pytest.raises(ExpressionSyntaxError):
        parse(NESTED[shape](MAX_DEPTH + 1))


def test_refusal_prints_no_warning():
    # CPython's tokenizer warns about a literal run into a keyword
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ExpressionSyntaxError):
            parse("1if x else 2")
    assert not caught


def test_unknown_identifier():
    with pytest.raises(ExpressionSyntaxError):
        parse("foo(x)")
    with pytest.raises(ExpressionSyntaxError):
        parse("y + 1")


@pytest.mark.parametrize(
    "src,x",
    [
        ("log(x)", -1.0),
        ("log(x)", 0.0),
        ("sqrt(x)", -2.0),
        ("1/x", 0.0),
        ("(-2)^0.5", 1.0),
        ("exp(x)", 1e4),
        ("x^-1", 0.0),
        ("x^(-0.5)", 0.0),
        ("1e400", 1.0),
    ],
)
def test_domain_and_overflow_errors(src, x):
    with pytest.raises(ExpressionEvalError):
        evaluate(parse(src), x)


@pytest.mark.parametrize(
    "src,bad",
    [
        ("log(1-x)", "1.0"),
        ("sqrt(1.2-x)", "1.5"),
        ("1/(x-2)", "2.0"),
        ("(x-3)^0.5", "0.0"),
        ("(x-2)^-1", "2.0"),
        ("exp(400*x)", "2.0"),
    ],
)
def test_array_error_names_first_bad_x(src, bad):
    with pytest.raises(ExpressionEvalError, match=rf"at x={bad}$"):
        evaluate(parse(src), np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5]))


def test_underflow_is_not_an_error():
    assert evaluate(parse("x*x"), 2.2e-313) == 0.0
    assert np.array_equal(evaluate(parse("x*x"), np.array([2.2e-313, 2.0])),
                          [0.0, 4.0])


def test_array_shape_kept_for_a_constant():
    values = evaluate(parse("2*pi"), np.zeros((2, 3)))
    assert values.shape == (2, 3)
    assert np.all(values == 2 * math.pi)


def _math_eval(expr, x: float) -> float:
    """The scalar walk with math.* functions, the reference for the array
    walk.  An integer power is rounded once from its exact value: C's pow,
    behind ``**``, is 1 ulp off for (x + a)^2 at some x, where numpy's
    square is exact."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Const):
        return {"pi": math.pi, "e": math.e}[expr.name]
    if isinstance(expr, Var):
        return x
    if isinstance(expr, Unary):
        return -_math_eval(expr.operand, x)
    if isinstance(expr, Binary):
        a, b = _math_eval(expr.left, x), _math_eval(expr.right, x)
        if expr.op == "^":
            return float(Fraction(a) ** int(b)) if b == int(b) else a**b
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[expr.op]
    if isinstance(expr, Call):
        return getattr(math, expr.func, abs)(_math_eval(expr.arg, x))
    raise TypeError(expr)


def _benchmark_potentials() -> set:
    spec = importlib.util.spec_from_file_location("perfbench_plan", PLAN_PATH)
    plan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plan)
    sources = set(plan.SPECTRUM_MODELS.values())
    for models in (plan.SOLVE_MODELS, plan.REFERENCE_POTENTIALS):
        sources |= {m["q"] for m in models.values() if isinstance(m["q"], str)}
    sources.add(plan.BUILD_FAULT["q"])
    for seed in (1, 2, 3):
        sources |= {r["q"] for r in plan.make_round("build_sweep", seed) if r["q"]}
    return sources


@pytest.mark.parametrize("src", sorted(_benchmark_potentials()))
def test_array_walk_within_one_ulp_of_math(src):
    tree = parse(src)
    xs = np.linspace(0.0, 4.5, 4501)
    scalar = np.array([_math_eval(tree, x) for x in xs.tolist()])
    assert np.all(np.abs(evaluate(tree, xs) - scalar) <= np.spacing(np.abs(scalar)))


# --- randomized structural properties -------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=3.0).map(lambda v: f"{v:.3f}"),
    st.just("x"),
)


def _combine(children):
    # with and without parentheses, so that the precedence of + - * decides
    a, b = children
    op = st.sampled_from(["+", "-", "*"])
    form = st.sampled_from(["({}{}{})", "{}{}{}"])
    return st.tuples(op, form).map(lambda t: t[1].format(a, t[0], b))


_expr_text = st.recursive(
    _leaf,
    lambda inner: st.tuples(inner, inner).flatmap(_combine),
    max_leaves=12,
)


@given(_expr_text, st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=150, deadline=None)
def test_precedence_matches_python_eval(src, x):
    # Python gives + - * the same precedence and associativity, and its
    # float arithmetic is the same, so the values agree exactly
    assert evaluate(parse(src), x) == eval(src, {"__builtins__": {}}, {"x": x})


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_parser_total_on_arbitrary_input(text):
    try:
        parse(text)
    except ExpressionSyntaxError:
        pass  # the only permitted failure mode
