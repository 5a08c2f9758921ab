"""Parser and evaluator for scalar potential expressions q(x).

Accepts the usual infix syntax over one variable ``x``: numeric literals
(decimal and scientific), the named constants ``pi`` and ``e``, the binary
operators ``+ - * / ^``, unary minus, parentheses, and the functions
exp, sin, cos, sinh, cosh, sqrt, log, abs.

Precedence, tightest first: ``^`` (right-associative), unary minus,
``* /``, ``+ -``.  In particular ``-x^2`` parses as ``-(x^2)``.

Parsed expressions are immutable and safe to evaluate concurrently.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

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
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "sqrt": math.sqrt,
    "log": math.log,
    "abs": abs,
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


def evaluate(expr: Expression, x: float) -> float:
    """Evaluate ``expr`` at the point ``x``.

    Returns a finite float.  Applying a function outside its real domain
    (log of a non-positive value, sqrt of a negative, a fractional power of
    a negative base) raises ExpressionEvalError, as does overflow.
    """
    result = _eval(expr, x)
    if not math.isfinite(result):
        raise ExpressionEvalError(f"evaluation produced non-finite value {result!r}")
    return result


def _eval(expr: Expression, x: float) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Const):
        return _CONSTANTS[expr.name]
    if isinstance(expr, Var):
        return x
    if isinstance(expr, Unary):
        return -_eval(expr.operand, x)
    if isinstance(expr, Binary):
        a = _eval(expr.left, x)
        b = _eval(expr.right, x)
        try:
            if expr.op == "+":
                return a + b
            if expr.op == "-":
                return a - b
            if expr.op == "*":
                return a * b
            if expr.op == "/":
                if b == 0.0:
                    raise ExpressionEvalError("division by zero")
                return a / b
            # '^': real arithmetic only
            if a < 0.0 and b != round(b):
                raise ExpressionEvalError(
                    "fractional power of a negative base is not real"
                )
            return a ** b
        except OverflowError as exc:
            raise ExpressionEvalError(f"overflow in '{expr.op}'") from exc
    if isinstance(expr, Call):
        v = _eval(expr.arg, x)
        if expr.func == "log" and v <= 0.0:
            raise ExpressionEvalError(f"log of non-positive value {v}")
        if expr.func == "sqrt" and v < 0.0:
            raise ExpressionEvalError(f"sqrt of negative value {v}")
        try:
            return _FUNCTIONS[expr.func](v)
        except (OverflowError, ValueError) as exc:
            raise ExpressionEvalError(f"{expr.func}({v}) failed: {exc}") from exc
    raise TypeError(f"not an expression node: {expr!r}")
