import math
from fractions import Fraction

import numpy as np
import pytest

from nsbf import (
    ConvergenceError,
    GridError,
    derivative,
    indefinite_integral,
    make_grid,
    sample,
    solve_homogeneous,
)
from nsbf.grid import _M_CAP, _W_BLOCK, _stencil_weights
from nsbf.oracle import propagate

PI = math.pi


class TestMakeGrid:
    def test_nodes(self):
        g = make_grid(PI, 600)
        assert float(g.nodes[100]) == pytest.approx(PI / 6, abs=1e-15)
        assert float(g.nodes[0]) == 0.0
        assert float(g.nodes[600]) == pytest.approx(PI, abs=1e-15)

    def test_divisibility(self):
        with pytest.raises(GridError):
            make_grid(1.0, 64)

    def test_endpoint(self):
        g = make_grid(2.0, 66)
        assert float(g.nodes[66]) == pytest.approx(2.0, abs=1e-15)

    # M past its cap is refused before the node array is made
    @pytest.mark.parametrize("b,M", [(0.0, 66), (-1.0, 66), (1.0, 60),
                                     (1.0, _M_CAP + 6)])
    def test_invalid(self, b, M):
        with pytest.raises(GridError):
            make_grid(b, M)

    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_endpoint_must_be_finite(self, b):
        # an infinite b used to give the nodes [nan, inf, ...]
        with pytest.raises(GridError, match="positive and finite"):
            make_grid(b, 66)


def _exact_block_weights() -> list[list[Fraction]]:
    """W[m-1][i] = int_0^m L_i(t) dt for the Lagrange basis on nodes 0..6,
    in exact rationals: the reference for the written-out ``_W_BLOCK``."""
    nodes = range(7)
    W = [[Fraction(0)] * 7 for _ in range(6)]
    for i in nodes:
        # numerator coefficients of L_i(t) = prod_{j != i} (t - j)/(i - j)
        coeffs = [Fraction(1)]
        denom = Fraction(1)
        for j in nodes:
            if j == i:
                continue
            denom *= i - j
            coeffs = [Fraction(0)] + coeffs  # multiply by (t - j)
            for k in range(len(coeffs) - 1):
                coeffs[k] -= j * coeffs[k + 1]
        # the antiderivative of t^k is t^(k+1)/(k+1)
        anti = [c / ((k + 1) * denom) for k, c in enumerate(coeffs)]
        for m in range(1, 7):
            W[m - 1][i] = sum(c * Fraction(m) ** (k + 1)
                              for k, c in enumerate(anti))
    return W


def _rounded(fractions) -> np.ndarray:
    """Each rational as the correctly rounded longdouble quotient."""
    return np.array([[np.longdouble(f.numerator) / np.longdouble(f.denominator)
                      for f in row] for row in fractions])


class TestBlockWeights:
    def test_written_out_weights_are_the_exact_rationals(self):
        assert _W_BLOCK.dtype == np.longdouble
        assert np.array_equal(_W_BLOCK, _rounded(_exact_block_weights()))

    def test_full_block_row_is_the_closed_degree_six_rule(self):
        closed = [Fraction(n, 140) for n in (41, 216, 27, 272, 27, 216, 41)]
        assert _exact_block_weights()[-1] == closed
        assert np.array_equal(_W_BLOCK[-1], _rounded([closed])[0])


class TestIndefiniteIntegral:
    def test_constant_exact(self):
        g = make_grid(PI, 600)
        F = indefinite_integral(g, sample(g, lambda x: 1.0))
        assert float(np.max(np.abs(F - g.nodes))) < 1e-15
        assert F[0] == 0.0

    def test_cosine(self):
        g = make_grid(PI, 600)
        F = indefinite_integral(g, sample(g, np.cos))
        assert abs(float(F[-1])) < 1e-13
        xs = np.asarray(g.nodes, dtype=float)
        dev = np.abs(np.asarray(F, dtype=float) - np.sin(xs))
        assert float(np.max(dev)) < 1e-14

    def test_degree_six_exact(self):
        g = make_grid(1.0, 66)
        F = indefinite_integral(g, sample(g, lambda x: x**6))
        assert abs(float(F[-1]) - 1.0 / 7.0) < 1e-15

    def test_linearity(self):
        g = make_grid(2.0, 120)
        f = sample(g, np.sin)
        h = sample(g, np.exp)
        lhs = indefinite_integral(g, 2.5 * f - 0.75 * h)
        rhs = 2.5 * indefinite_integral(g, f) - 0.75 * indefinite_integral(g, h)
        assert float(np.max(np.abs(lhs - rhs))) < 1e-14

    @pytest.mark.parametrize(
        "dtype", [np.float64, np.longdouble, np.complex128, np.clongdouble]
    )
    def test_stack_matches_row_calls(self, dtype):
        g = make_grid(PI, 600)
        x = np.asarray(g.nodes, dtype=float)
        rows = np.stack((np.exp(x) * np.sin(3 * x), np.cos(x) / (1 + x)))
        if np.issubdtype(dtype, np.complexfloating):
            rows = rows + 1j * rows[::-1]
        rows = rows.astype(dtype)
        stacked = indefinite_integral(g, rows)
        assert stacked.dtype == rows.dtype
        for r in range(2):
            row = indefinite_integral(g, rows[r])
            assert np.array_equal(stacked[r], row)

    @pytest.mark.parametrize(
        "dtype,extended",
        [(np.float64, np.longdouble), (np.complex128, np.clongdouble)],
    )
    def test_double_input_rounds_once(self, dtype, extended):
        # weights, h and block offsets stay extended for float64 and
        # complex128 values: the result is the extended integral of the
        # same values, rounded once
        g = make_grid(PI, 600)
        x = np.asarray(g.nodes, dtype=float)
        v = (np.exp(x) * np.sin(3 * x)).astype(dtype)
        if np.issubdtype(dtype, np.complexfloating):
            v = v + 1j * np.cos(x) / (1 + x)
        F = indefinite_integral(g, v)
        F_ext = indefinite_integral(g, v.astype(extended))
        assert np.array_equal(F, F_ext.astype(dtype))

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize(
        "dtype", [np.longdouble, np.clongdouble, np.complex128]
    )
    def test_block_sums_run_left_to_right(self, dtype, stacked):
        # each partial integral is the sum over the 7 block nodes in
        # ascending order, in the extended dtype of the weights, and the
        # block offsets add up block by block
        g = make_grid(PI, 600)
        x = np.asarray(g.nodes, dtype=float)
        v = np.stack((np.exp(x) * np.sin(3 * x), np.cos(x) / (1 + x)))
        if np.issubdtype(dtype, np.complexfloating):
            v = v + 1j * v[::-1]
        v = v.astype(dtype)
        if not stacked:
            v = v[0]
        ext = np.result_type(v.dtype, _W_BLOCK.dtype)
        h = np.longdouble(g.b) / g.M
        expected = np.zeros(v.shape, dtype=v.dtype)
        offset = np.zeros(v.shape[:-1], dtype=ext)
        for j in range(0, g.M, 6):
            acc = np.zeros((*v.shape[:-1], 6), dtype=ext)
            for i in range(7):
                acc = acc + v[..., j + i, None].astype(ext) * _W_BLOCK[:, i]
            acc = acc * h
            expected[..., j + 1 : j + 7] = offset[..., None] + acc
            offset = offset + acc[..., 5]
        F = indefinite_integral(g, v)
        assert np.array_equal(F, expected)

    @pytest.mark.parametrize("shape", [(), (66,), (68,), (2, 66), (67, 2)])
    def test_length_must_match_grid(self, shape):
        g = make_grid(1.0, 66)
        with pytest.raises(GridError, match="do not match the grid"):
            indefinite_integral(g, np.ones(shape))

    def test_convergence_order(self):
        # halving h must shrink the error by at least 2^6
        errs = []
        for M in (66, 132):
            g = make_grid(PI, M)
            F = indefinite_integral(g, sample(g, lambda x: np.sin(7 * x)))
            exact = (1.0 - math.cos(7 * PI)) / 7.0
            errs.append(abs(float(F[-1]) - exact))
        assert errs[0] / errs[1] >= 2**6


class TestSolveHomogeneous:
    def test_zero_potential_exact(self):
        g = make_grid(PI, 600)
        q = np.zeros(601, dtype=np.longdouble)
        f0, f1 = solve_homogeneous(g, q, 1.0), solve_homogeneous(g, q, g.nodes)
        assert float(np.max(np.abs(f0 - 1.0))) == 0.0
        assert float(np.max(np.abs(f1 - g.nodes))) == 0.0

    def test_constant_potential(self):
        g = make_grid(PI, 600)
        q = sample(g, lambda x: 1.0)
        f0, f1 = solve_homogeneous(g, q, 1.0), solve_homogeneous(g, q, g.nodes)
        xs = np.asarray(g.nodes, dtype=float)
        assert float(np.max(np.abs(np.asarray(f0, float) - np.cosh(xs)))) < 1e-12
        assert float(np.max(np.abs(np.asarray(f1, float) - np.sinh(xs)))) < 1e-12

    def test_exponential_against_reference_integrator(self):
        g = make_grid(PI, 1998)
        f0 = solve_homogeneous(g, sample(g, np.exp), 1.0)
        y, _ = propagate(np.exp, PI, [0.0], np.array([1.0, 0.0]))
        assert abs(float(f0[-1]) - float(y[0, 0].real)) < 1e-10 * abs(
            float(y[0, 0].real)
        )

    def test_wronskian_integral_identity(self):
        # f1(x) = f0(x) * int_0^x f0^-2 wherever f0 does not vanish
        g = make_grid(PI, 1998)
        q = sample(g, np.exp)
        f0, f1 = solve_homogeneous(g, q, 1.0), solve_homogeneous(g, q, g.nodes)
        inv = indefinite_integral(g, 1.0 / (f0 * f0))
        recon = f0 * inv
        assert float(np.max(np.abs(recon - f1))) < 1e-9

    def test_nonconvergence(self):
        g = make_grid(50.0, 66)
        with pytest.raises(ConvergenceError):
            solve_homogeneous(g, sample(g, lambda x: 100.0), 1.0)

    def test_overflow_is_a_convergence_error(self):
        # on b = 1e20 the increments overflow: refused at the first one that
        # is not finite, with no RuntimeWarning on the way
        g = make_grid(1e20, 66)
        with pytest.raises(ConvergenceError, match="left the float range"):
            solve_homogeneous(g, sample(g, lambda x: 1.0), 1.0)


def test_derivative_sixth_order():
    g = make_grid(PI, 600)
    d = derivative(g, sample(g, np.sin))
    xs = np.asarray(g.nodes, dtype=float)
    assert float(np.max(np.abs(np.asarray(d, float) - np.cos(xs)))) < 1e-11


@pytest.mark.parametrize("shape", [(), (66,), (68,), (2, 67)])
def test_derivative_length_must_match_grid(shape):
    g = make_grid(1.0, 66)
    with pytest.raises(GridError, match="do not match the grid"):
        derivative(g, np.ones(shape))


@pytest.mark.parametrize("dtype", [np.longdouble, np.clongdouble])
def test_derivative_stencil_sums_run_left_to_right(dtype):
    # every node is its 7-point stencil summed over ascending nodes in
    # the dtype of the values, then divided by h
    g = make_grid(PI, 600)
    M = g.M
    v = sample(g, lambda x: np.exp(x) * np.sin(3 * x))
    if dtype is np.clongdouble:
        v = v + 1j * sample(g, np.cos)
    h = np.longdouble(g.b) / M
    expected = np.zeros(M + 1, dtype=v.dtype)
    for j in range(M + 1):
        start = min(max(j - 3, 0), M - 6)
        w = _stencil_weights(np.arange(start, start + 7) - j).astype(dtype)
        acc = dtype(0)
        for i in range(7):
            acc = acc + w[i] * v[start + i]
        expected[j] = acc / h
    assert np.array_equal(derivative(g, v), expected)
