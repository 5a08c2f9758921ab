"""Parser and evaluator for real potential expressions q(x).

Accepts the usual infix syntax over one variable ``x``: numeric literals
(decimal and scientific), the named constants ``pi`` and ``e``, the binary
operators ``+ - * / ^``, unary minus, parentheses, and the functions
exp, sin, cos, sinh, cosh, sqrt, log, abs.  Only ASCII letters, digits
and whitespace and ``. + - * / ^ ( )`` may appear: ``^`` is the only power
operator, and literals take ASCII digits and no leading zero (``01``).

Precedence, tightest first: ``^`` (right-associative), unary minus,
``* /``, ``+ -``.  In particular ``-x^2`` parses as ``-(x^2)``.  These are
Python's rules for ``**``, so ``parse`` hands the text to CPython's parser
and admits only the grammar's nodes of its tree, at most MAX_DEPTH deep.

``evaluate`` walks the tree once for a whole ndarray of points, applying
numpy ufuncs under ``np.errstate(all="raise", under="ignore")``, so that
sampling q on a grid or on a block of integrator steps is one call.  A
domain error, division by zero or overflow at any point raises
``ExpressionEvalError`` naming the first such point.

Parsed expressions are immutable and safe to evaluate concurrently.
"""

from __future__ import annotations

import ast
import math
import re
import string
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ExpressionEvalError, ExpressionSyntaxError

__all__ = ["Expression", "Num", "Const", "Var", "Unary", "Binary", "Call",
           "parse", "evaluate"]


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
    name: getattr(np, name)
    for name in ("exp", "sin", "cos", "sinh", "cosh", "sqrt", "log", "abs")
}

_OPERATORS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}

_BINARY_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}

#: deepest tree that ``parse`` builds: half of CPython's default recursion
#: limit, as the walks here and in ``evaluate`` take one frame per level
MAX_DEPTH = 500

_NUMBER_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
#: a character outside the grammar's alphabet, or Python's power operator
_REFUSED_RE = re.compile(r"[^0-9A-Za-z.+\-*/^()\s]|\*\*", re.ASCII)
_SPACES = str.maketrans(string.whitespace, " " * len(string.whitespace))
_OPERAND = "number, 'x', constant, function call, '-' or '('"
# CPython's tokenizer takes at most 200 levels of parentheses
_NESTING = f"at most {MAX_DEPTH} levels of nesting, 200 of parentheses"


def parse(source: str) -> Expression:
    """Parse ``source`` into an immutable expression tree.

    Raises
    ------
    ExpressionSyntaxError
        With the offset of the failure in ``source`` and a description of
        what was expected there, also for a tree deeper than MAX_DEPTH.
        Never raises anything else, whatever the input.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExpressionSyntaxError("empty expression", 0, "an expression")
    refused = _REFUSED_RE.search(source)
    if refused:
        raise _error(source, refused.start(), "ASCII letters, digits, "
                     "spaces, '.', '+', '-', '*', '/', '^', '(' or ')'")
    lead = len(source) - len(source.lstrip())
    # one line with no indent, as mode="eval" needs
    code = source[lead:].translate(_SPACES).replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # e.g. "1if x", refused anyway
            return _tree(ast.parse(code, mode="eval").body, code, 1)
    except ExpressionSyntaxError as exc:
        col, expected = exc.offset, exc.expected
    except SyntaxError as exc:
        # offset 0 marks the end of the input
        col = (exc.offset or len(code) + 1) - 1
        expected = _NESTING if "nested" in exc.msg else _OPERAND
    except (ValueError, RecursionError, MemoryError):
        col, expected = 0, _NESTING
    col = min(max(col, 0), len(code))
    raise _error(source, lead + col - code[:col].count("**"), expected) from None


def _error(source: str, offset: int, expected: str) -> ExpressionSyntaxError:
    found = source[offset : offset + 10] or "end of input"
    return ExpressionSyntaxError(f"syntax error near {found!r}", offset, expected)


def _tree(node: ast.expr, code: str, depth: int) -> Expression:
    """The grammar's tree for ``node`` of Python's tree of ``code``.

    A node outside the grammar, or deeper than MAX_DEPTH, raises
    ExpressionSyntaxError at its offset into ``code``.
    """
    if depth > MAX_DEPTH:
        raise ExpressionSyntaxError("", node.col_offset, _NESTING)
    match node:
        case ast.Constant() if _NUMBER_RE.fullmatch(
            code, node.col_offset, node.end_col_offset
        ):
            return Num(float(code[node.col_offset : node.end_col_offset]))
        case ast.Name(id="x"):
            return Var()
        case ast.Name(id=name) if name in _CONSTANTS:
            return Const(name)
        case ast.UnaryOp(op=ast.USub(), operand=operand):
            return Unary(_tree(operand, code, depth + 1))
        case ast.BinOp(left=left, op=op, right=right) if type(op) in _BINARY_OPS:
            return Binary(
                _BINARY_OPS[type(op)],
                _tree(left, code, depth + 1),
                _tree(right, code, depth + 1),
            )
        case ast.Call(func=ast.Name(id=name), args=[arg], keywords=[]) if (
            name in _FUNCTIONS
        ):
            return Call(name, _tree(arg, code, depth + 1))
    raise ExpressionSyntaxError("", node.col_offset, _OPERAND)


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
