"""Uniform grids, high-order indefinite integration, and the homogeneous
solutions f0, f1 of f'' = q f.

The indefinite integral is a composite Newton-Cotes rule of degree 6: the
grid is processed in blocks of 6 subintervals, and within each block the
cumulative integral at every interior node is the exact integral of the
local degree-6 interpolating polynomial.  The block weights are computed
once, in exact rational arithmetic, at import time.

f0 and f1 are produced by Picard iteration so that they carry exactly the
same discretization error as every other integral in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, GridError

__all__ = [
    "Grid",
    "SampledFunction",
    "make_grid",
    "sample",
    "indefinite_integral",
    "solve_homogeneous",
    "derivative",
]

#: numpy dtype used for the coefficient pipeline.  Extended precision, where
#: the platform provides it, buys ~3 extra digits in the badly cancelling
#: Legendre-coefficient sums at large order n.
PIPELINE_DTYPE = np.longdouble
PIPELINE_CDTYPE = np.clongdouble

#: Picard iteration cap and stopping tolerance in solve_homogeneous
PICARD_MAX_ITER = 200
PICARD_RTOL = 1e-15


def _block_weights() -> np.ndarray:
    """Cumulative Newton-Cotes weights on a 6-subinterval block.

    Returns W of shape (6, 7) with W[m-1, i] = integral over [0, m] of the
    i-th Lagrange basis polynomial on nodes 0..6 (unit spacing), so that

        int_{x_0}^{x_m} f  ~=  h * sum_i W[m-1, i] f(x_i).

    Exact rationals throughout; the full-block row reduces to the classic
    degree-6 closed rule (41, 216, 27, 272, 27, 216, 41)/140.
    """
    nodes = range(7)
    W = np.zeros((6, 7), dtype=PIPELINE_DTYPE)
    for i in nodes:
        # numerator coefficients of L_i(t) = prod_{j != i} (t - j)/(i - j)
        coeffs = [Fraction(1)]
        denom = Fraction(1)
        for j in nodes:
            if j == i:
                continue
            denom *= i - j
            # multiply polynomial by (t - j)
            coeffs = [Fraction(0)] + coeffs
            for k in range(len(coeffs) - 1):
                coeffs[k] -= j * coeffs[k + 1]
        # antiderivative coefficients: integral of t^k is t^(k+1)/(k+1)
        anti = [c / ((k + 1) * denom) for k, c in enumerate(coeffs)]
        for m in range(1, 7):
            acc = Fraction(0)
            for k, c in enumerate(anti):
                acc += c * Fraction(m) ** (k + 1)
            W[m - 1, i] = np.longdouble(acc.numerator) / np.longdouble(
                acc.denominator
            )
    return W


_W_BLOCK = _block_weights()


@dataclass(frozen=True)
class Grid:
    """Uniform grid x_j = j*b/M, j = 0..M, with M divisible by 6."""

    b: float
    M: int
    nodes: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        nodes = np.arange(self.M + 1, dtype=PIPELINE_DTYPE) * (
            np.longdouble(self.b) / self.M
        )
        object.__setattr__(self, "nodes", nodes)

    @property
    def h(self) -> float:
        return self.b / self.M

    def nearest_index(self, x: float) -> int:
        """Index of the grid node closest to x (clipped to the grid)."""
        j = int(round(x / self.h))
        return min(max(j, 0), self.M)


@dataclass(frozen=True)
class SampledFunction:
    """Values of a (possibly complex) function at every node of a grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.values) != self.grid.M + 1:
            raise GridError(
                f"value count {len(self.values)} does not match grid with "
                f"M={self.grid.M}"
            )

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)


def make_grid(b: float, M: int) -> Grid:
    """Build the uniform grid on [0, b] with M subintervals.

    M must be at least 64 and divisible by 6 (the quadrature block size).
    """
    if not (b > 0):
        raise GridError(f"interval endpoint must be positive, got b={b}")
    if M < 64:
        raise GridError(f"M must be at least 64, got {M}")
    if M % 6 != 0:
        raise GridError(f"M must be divisible by 6, got {M}")
    return Grid(float(b), int(M))


def sample(grid: Grid, func) -> SampledFunction:
    """Sample q on every grid node in one call.

    ``func`` maps the ndarray of nodes (as float64) to an array of values,
    or to a scalar for a constant.  Complex values are kept complex;
    otherwise the samples are stored in the extended-precision pipeline
    dtype.
    """
    x = np.asarray(grid.nodes, dtype=float)
    raw = np.broadcast_to(np.asarray(func(x)), x.shape)
    dtype = PIPELINE_CDTYPE if np.iscomplexobj(raw) else PIPELINE_DTYPE
    return SampledFunction(grid, raw.astype(dtype))


def indefinite_integral(f: SampledFunction) -> SampledFunction:
    """Indefinite integral F(x_j) = int_0^{x_j} f, with F(0) = 0 exactly.

    Composite Newton-Cotes of degree 6 on consecutive 6-subinterval blocks;
    interior nodes of a block integrate the local degree-6 interpolant.
    Exact for polynomials up to degree 6.
    """
    grid = f.grid
    v = f.values
    B = grid.M // 6
    h = np.longdouble(grid.b) / grid.M

    # gather block samples: blocks[k, i] = v[6k + i], i = 0..6
    idx = 6 * np.arange(B)[:, None] + np.arange(7)[None, :]
    blocks = v[idx]

    # partial integrals from each block start to its 6 interior/end nodes
    partials = h * (blocks @ _W_BLOCK.T)  # shape (B, 6)

    F = np.zeros(grid.M + 1, dtype=v.dtype)
    offsets = np.concatenate(
        (np.zeros(1, dtype=v.dtype), np.cumsum(partials[:-1, 5]))
    )
    F[1:] = (offsets[:, None] + partials).reshape(-1)
    return SampledFunction(grid, F)


def _sup(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def solve_homogeneous(
    q: SampledFunction
) -> tuple[SampledFunction, SampledFunction]:
    """Particular solutions of f'' = q f by Picard iteration.

    Returns (f0, f1) with f0(0)=1, f0'(0)=0 and f1(0)=0, f1'(0)=1.  Each is
    the series sum of g_0 = 1 (resp. g_0 = x) and
    g_{m+1}(x) = int_0^x int_0^s q g_m.  Iteration stops when the sup norm
    of the last increment drops below PICARD_RTOL * (1 + sup|partial sum|).

    Raises
    ------
    ConvergenceError
        If PICARD_MAX_ITER increments do not reach the tolerance (b too
        large or q too rough for the grid).
    """
    grid = q.grid
    results = []
    for seed in (np.ones_like(q.values), np.asarray(grid.nodes, dtype=q.values.dtype)):
        g = SampledFunction(grid, seed)
        total = seed.copy()
        for _ in range(PICARD_MAX_ITER):
            inner = indefinite_integral(SampledFunction(grid, q.values * g.values))
            g = indefinite_integral(inner)
            total = total + g.values
            if _sup(g.values) < PICARD_RTOL * (1.0 + _sup(total)):
                break
        else:
            raise ConvergenceError(
                f"Picard iteration did not converge in {PICARD_MAX_ITER} "
                f"iterations (last increment {_sup(g.values):.3e})"
            )
        results.append(SampledFunction(grid, total))
    return results[0], results[1]


def _stencil_weights(offsets: np.ndarray) -> np.ndarray:
    """First-derivative weights of the degree-6 interpolant on 7 nodes.

    offsets are node positions relative to the evaluation point, in units
    of h.  Solving the 7x7 Vandermonde system sum_i w_i o_i^m = [m == 1]
    gives a 6th-order accurate derivative.
    """
    V = np.vander(offsets.astype(float), 7, increasing=True).T
    rhs = np.zeros(7)
    rhs[1] = 1.0
    return np.linalg.solve(V, rhs)


def derivative(f: SampledFunction) -> SampledFunction:
    """6th-order finite-difference derivative on the grid.

    Centered 7-point stencils in the interior, one-sided near the ends.
    """
    grid = f.grid
    M = grid.M
    h = np.longdouble(grid.b) / M
    v = f.values
    out = np.zeros(M + 1, dtype=v.dtype)

    centered = _stencil_weights(np.arange(-3, 4))
    idx = np.arange(3, M - 2)[:, None] + np.arange(-3, 4)[None, :]
    out[3 : M - 2] = (v[idx] @ centered.astype(v.dtype)) / h

    for j in (0, 1, 2, M - 2, M - 1, M):
        start = min(max(j - 3, 0), M - 6)
        offsets = np.arange(start, start + 7) - j
        w = _stencil_weights(offsets).astype(v.dtype)
        out[j] = np.dot(w, v[start : start + 7]) / h
    return SampledFunction(grid, out)
