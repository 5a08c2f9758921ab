import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsbf import ExpressionEvalError, ExpressionSyntaxError
from nsbf.expr import evaluate, parse


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
    ],
)
def test_domain_and_overflow_errors(src, x):
    with pytest.raises(ExpressionEvalError):
        evaluate(parse(src), x)


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
