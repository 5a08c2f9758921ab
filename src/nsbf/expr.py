"""Parser and evaluator for real potential expressions q(x).

Accepts the usual infix syntax over one variable ``x``: numeric literals
(decimal and scientific), the named constants ``pi`` and ``e``, the binary
operators ``+ - * / ^``, unary minus, parentheses, and the functions
exp, sin, cos, sinh, cosh, sqrt, log, abs.

Precedence, tightest first: ``^`` (right-associative), unary minus,
``* /``, ``+ -``.  In particular ``-x^2`` parses as ``-(x^2)``.

``evaluate`` walks the tree once for a whole ndarray of points, applying
numpy ufuncs under ``np.errstate(all="raise", under="ignore")``, so that
sampling q on a grid or on a block of integrator steps is one call.  A
domain error, division by zero or overflow at any point raises
``ExpressionEvalError`` naming the first such point.

Parsed expressions are immutable and safe to evaluate concurrently.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ExpressionEvalError, ExpressionSyntaxError

__all__ = [
    "Expression",
    "Num",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "parse",
    "evaluate",
]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Unary:
    operand: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Num, Const, Var, Unary, Binary, Call]

_CONSTANTS = {"pi": math.pi, "e": math.e}

_FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "sqrt": np.sqrt,
    "log": np.log,
    "abs": np.abs,
}

_OPERATORS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}

_NUMBER_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    """Single-pass recursive-descent parser over a source string."""

    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def error(self, expected: str) -> ExpressionSyntaxError:
        found = self.src[self.pos : self.pos + 10] or "end of input"
        return ExpressionSyntaxError(
            f"syntax error near {found!r}", self.pos, expected
        )

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def accept(self, chars: str) -> str:
        c = self.peek()
        if c and c in chars:
            self.pos += 1
            return c
        return ""

    def parse_expression(self) -> Expression:
        node = self.parse_term()
        while True:
            op = self.accept("+-")
            if not op:
                return node
            node = Binary(op, node, self.parse_term())

    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while True:
            op = self.accept("*/")
            if not op:
                return node
            node = Binary(op, node, self.parse_unary())

    def parse_unary(self) -> Expression:
        if self.accept("-"):
            return Unary(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        if self.accept("^"):
            # right-associative; exponent may carry its own unary minus
            return Binary("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expression:
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self.parse_expression()
            if not self.accept(")"):
                raise self.error("')'")
            return node
        if c.isdigit() or c == ".":
            m = _NUMBER_RE.match(self.src, self.pos)
            if not m:
                raise self.error("number")
            self.pos = m.end()
            return Num(float(m.group(0)))
        if c.isalpha() or c == "_":
            m = _IDENT_RE.match(self.src, self.pos)
            if m is None:
                raise self.error("an ASCII identifier")
            name = m.group(0)
            if name == "x":
                self.pos = m.end()
                return Var()
            if name in _CONSTANTS:
                self.pos = m.end()
                return Const(name)
            if name in _FUNCTIONS:
                self.pos = m.end()
                if not self.accept("("):
                    raise self.error(f"'(' after function {name}")
                arg = self.parse_expression()
                if not self.accept(")"):
                    raise self.error("')'")
                return Call(name, arg)
            raise ExpressionSyntaxError(
                f"unknown identifier {name!r}", self.pos,
                "x, pi, e or a function name",
            )
        raise self.error("number, 'x', constant, function or '('")


def parse(source: str) -> Expression:
    """Parse ``source`` into an immutable expression tree.

    Raises
    ------
    ExpressionSyntaxError
        With the byte offset of the failure and a description of the
        expected token.  Never raises anything else, whatever the input.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExpressionSyntaxError("empty expression", 0, "an expression")
    p = _Parser(source)
    node = p.parse_expression()
    p.skip_ws()
    if p.pos != len(p.src):
        raise p.error("end of input or an operator")
    return node


def evaluate(expr: Expression, x):
    """Evaluate ``expr`` at the point or ndarray of points ``x``.

    One walk of the tree, with numpy ufuncs over the whole array.  Returns
    a finite float for a scalar ``x`` and a float64 array of the shape of
    ``x`` otherwise, also for a constant expression.  Applying a function
    outside its real domain (log of a non-positive value, sqrt of a
    negative, a fractional power of a negative base, zero to a negative
    power), division by zero and overflow raise ExpressionEvalError naming
    the first bad ``x``; underflow to zero is not an error.
    """
    xs = np.asarray(x, dtype=float)
    with np.errstate(all="raise", under="ignore"):
        result = _eval(expr, xs)
    bad = ~np.isfinite(result)
    if np.any(bad):
        # a non-finite literal such as 1e400 that no operation flagged
        raise _error_at(bad, xs, "evaluation produced a non-finite value")
    if xs.ndim == 0:
        return float(result)
    out = np.empty(xs.shape)
    out[...] = result
    return out


def _error_at(bad, x: np.ndarray, message: str) -> ExpressionEvalError:
    """``message`` at the first point where ``bad`` holds."""
    bad, x = np.broadcast_arrays(bad, x)
    return ExpressionEvalError(
        f"{message} at x={float(x.flat[np.argmax(bad)])!r}"
    )


def _apply(func, name: str, x: np.ndarray, *args):
    """func(*args), with a floating-point error turned into
    ExpressionEvalError at the first x where the result is not finite.

    Every real-domain violation sets a flag: log(0) and 0^-1 divide by
    zero; log and sqrt of a negative and a fractional power of a negative
    base are invalid.
    """
    try:
        return func(*args)
    except FloatingPointError as exc:
        with np.errstate(all="ignore"):
            bad = ~np.isfinite(func(*args))
        raise _error_at(bad, x, f"{name}: {exc}") from exc


def _eval(expr: Expression, x: np.ndarray):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Const):
        return _CONSTANTS[expr.name]
    if isinstance(expr, Var):
        return x
    if isinstance(expr, Unary):
        return np.negative(_eval(expr.operand, x))
    if isinstance(expr, Binary):
        a = _eval(expr.left, x)
        b = _eval(expr.right, x)
        return _apply(_OPERATORS[expr.op], f"'{expr.op}'", x, a, b)
    if isinstance(expr, Call):
        v = _eval(expr.arg, x)
        return _apply(_FUNCTIONS[expr.func], expr.func, x, v)
    raise TypeError(f"not an expression node: {expr!r}")
