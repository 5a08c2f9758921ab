"""Uniform grids, high-order indefinite integration, and the homogeneous
solutions f0, f1 of f'' = q f.

A function on a grid is a plain ndarray of its values at the M+1 nodes:
the last axis runs over the nodes, and leading axes, if any, stack several
functions on the same grid.  Every stage takes the grid and its arrays
separately.

The indefinite integral is a composite Newton-Cotes rule of degree 6: the
grid is processed in blocks of 6 subintervals, and within each block the
cumulative integral at every interior node is the exact integral of the
local degree-6 interpolating polynomial.  The block weights are written
out as integers over their common denominator 60480.

f0 and f1 are produced by Picard iteration so that they carry exactly the
same discretization error as every other integral in the pipeline.

Precision.  Samples of q, the Picard iteration and every indefinite
integral run in extended precision (``numpy.longdouble`` where the platform
has it).  The integral keeps its weights, h and block offsets extended also
for complex128 input, such as f0 + i*f1 on the nonvanishing route of
``formal_powers``.  Both were measured against float64 on the benchmark
(``perfbench``): a float64 Picard iteration moves the ``spectrum``
median from 12.78 to 12.37 digits (plain N=25 on q = -0.9 loses 2), and
float64 weights for complex128 integrals give 12.34.

The block products and derivative stencils are ``np.dot`` calls, not
``matmul``: numpy has no BLAS for ``longdouble``, so ``matmul`` runs its
generic loop, 2-3x slower than the dtype's own dot kernel.  Both add the
terms of each sum in ascending order, so the results are the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, GridError

__all__ = [
    "Grid",
    "make_grid",
    "sample",
    "indefinite_integral",
    "solve_homogeneous",
    "derivative",
]

#: numpy dtypes of the sampled potential, and so of every stage that runs in
#: extended precision (see the module docstring and ``coefficients``)
PIPELINE_DTYPE = np.longdouble
PIPELINE_CDTYPE = np.clongdouble

#: Picard iteration cap and stopping tolerance in solve_homogeneous
PICARD_MAX_ITER = 200
PICARD_RTOL = 1e-15

#: largest M: a build at it with N = 60 peaks near 0.6 GB of RSS, within
#: a 1 GB budget (about 9 kB per node)
_M_CAP = 60_000


#: cumulative Newton-Cotes weights on a 6-subinterval block: W[m-1, i] is
#: the integral over [0, m] of the i-th Lagrange basis polynomial on nodes
#: 0..6 (unit spacing), so that int_{x_0}^{x_m} f ~= h sum_i W[m-1, i] f(x_i).
#: The exact rationals share the denominator 60480, and the last row is the
#: closed degree-6 rule (41, 216, 27, 272, 27, 216, 41)/140.  Each entry is
#: its rational correctly rounded to the pipeline dtype.
_W_BLOCK = np.array([
    [19087, 65112, -46461, 37504, -20211, 6312, -863],
    [18224, 90240, 528, 21248, -12912, 4224, -592],
    [18495, 87480, 31347, 58752, -19683, 5832, -783],
    [18304, 89088, 24576, 96256, 11136, 3072, -512],
    [18575, 87000, 31875, 80000, 58125, 28200, -1375],
    [17712, 93312, 11664, 117504, 11664, 93312, 17712],
], dtype=PIPELINE_DTYPE) / PIPELINE_DTYPE(60480)


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


def make_grid(b: float, M: int) -> Grid:
    """Build the uniform grid on [0, b] with M subintervals.

    b must be positive and finite; M must be at least 64, at most 60,000
    (``_M_CAP``: a bound on the memory of a build) and divisible by 6 (the
    quadrature block size).
    """
    if not (b > 0 and math.isfinite(b)):
        raise GridError(
            f"interval endpoint must be positive and finite, got b={b}"
        )
    if M < 64:
        raise GridError(f"M must be at least 64, got {M}")
    if M > _M_CAP:
        raise GridError(f"M must be at most {_M_CAP}, got {M}")
    if M % 6 != 0:
        raise GridError(f"M must be divisible by 6, got {M}")
    return Grid(float(b), int(M))


def sample(grid: Grid, func) -> np.ndarray:
    """Sample q on every grid node in one call.

    ``func`` maps the ndarray of nodes (as float64) to an array of values,
    or to a scalar for a constant.  Complex values are kept complex;
    otherwise the samples are stored in the extended-precision pipeline
    dtype.
    """
    x = np.asarray(grid.nodes, dtype=float)
    raw = np.broadcast_to(np.asarray(func(x)), x.shape)
    dtype = PIPELINE_CDTYPE if np.iscomplexobj(raw) else PIPELINE_DTYPE
    return raw.astype(dtype)


def _check_shape(grid: Grid, values: np.ndarray, shape: tuple):
    if np.shape(values) != shape:
        raise GridError(
            f"values of shape {np.shape(values)} do not match the grid with "
            f"M={grid.M}"
        )


def indefinite_integral(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Indefinite integral F(x_j) = int_0^{x_j} f, with F(0) = 0 exactly.

    Composite Newton-Cotes of degree 6 on consecutive 6-subinterval blocks;
    interior nodes of a block integrate the local degree-6 interpolant.
    Exact for polynomials up to degree 6.  Leading axes of ``values`` are
    integrated independently, each row exactly as on its own.

    Raises
    ------
    GridError
        If the last axis of ``values`` is not M+1 long.
    """
    _check_shape(grid, values, (*np.shape(values)[:-1], grid.M + 1))
    v = np.ascontiguousarray(values)
    h = np.longdouble(grid.b) / grid.M

    # blocks[..., k, i] = v[..., 6k + i], i = 0..6: a strided view of v,
    # in which consecutive blocks share their end node
    step = v.itemsize
    blocks = np.ndarray(
        (*v.shape[:-1], grid.M // 6, 7), v.dtype, v,
        strides=(*v.strides[:-1], 6 * step, step),
    )

    # partial integrals from each block start to its 6 interior/end nodes,
    # in the extended dtype of the weights, also for complex128 values
    partials = np.dot(blocks, _W_BLOCK.T)  # shape (..., B, 6)
    partials *= h

    # block offsets in the same dtype: rounding them to v's dtype first
    # would round every node of the block a second time
    offsets = np.zeros(partials.shape[:-1], dtype=partials.dtype)
    np.cumsum(partials[..., :-1, 5], axis=-1, out=offsets[..., 1:])
    partials += offsets[..., None]
    F = np.zeros(v.shape, dtype=v.dtype)
    F[..., 1:] = partials.reshape(*v.shape[:-1], -1)
    return F


def _sup(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


def solve_homogeneous(grid: Grid, q: np.ndarray, seed) -> np.ndarray:
    """The solution of f'' = q f whose Picard iteration starts at ``seed``.

    ``seed`` is g_0, a scalar or the M+1 node values: 1 gives f0, with
    f0(0)=1, f0'(0)=0, and the grid nodes give f1, with f1(0)=0,
    f1'(0)=1.  The solution is the series sum of g_0 and
    g_{m+1}(x) = int_0^x int_0^s q g_m.  Iteration stops when the sup norm
    of the last increment drops below PICARD_RTOL * (1 + sup|partial sum|).
    It runs with numpy's floating-point warnings off.

    Raises
    ------
    ConvergenceError
        If PICARD_MAX_ITER increments do not reach the tolerance, or the
        partial sum stops being finite (b too large or q too rough for the
        grid).
    """
    total = np.broadcast_to(seed, q.shape).astype(q.dtype)
    g = total
    with np.errstate(all="ignore"):
        for m in range(PICARD_MAX_ITER):
            g = indefinite_integral(grid, indefinite_integral(grid, q * g))
            total = total + g
            top = _sup(total)
            if not math.isfinite(top):
                raise ConvergenceError(
                    f"Picard iteration left the float range at increment "
                    f"{m + 1}"
                )
            if _sup(g) < PICARD_RTOL * (1.0 + top):
                return total
    raise ConvergenceError(
        f"Picard iteration did not converge in {PICARD_MAX_ITER} "
        f"iterations (last increment {_sup(g):.3e})"
    )


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


def derivative(grid: Grid, v: np.ndarray) -> np.ndarray:
    """6th-order finite-difference derivative of the node values ``v``.

    Centered 7-point stencils in the interior, one-sided near the ends.

    Raises
    ------
    GridError
        If ``v`` is not one row of M+1 values.
    """
    _check_shape(grid, v, (grid.M + 1,))
    M = grid.M
    h = np.longdouble(grid.b) / M
    out = np.zeros(M + 1, dtype=v.dtype)

    centered = _stencil_weights(np.arange(-3, 4))
    idx = np.arange(3, M - 2)[:, None] + np.arange(-3, 4)[None, :]
    out[3 : M - 2] = np.dot(v[idx], centered.astype(v.dtype)) / h

    for j in (0, 1, 2, M - 2, M - 1, M):
        start = min(max(j - 3, 0), M - 6)
        offsets = np.arange(start, start + 7) - j
        w = _stencil_weights(offsets).astype(v.dtype)
        out[j] = np.dot(w, v[start : start + 7]) / h
    return out
