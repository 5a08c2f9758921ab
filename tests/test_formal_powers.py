import math

import numpy as np
import pytest

from nsbf import NearVanishingError, make_grid, sample, solve_homogeneous
from nsbf.formal_powers import (
    formal_powers,
    formal_powers_nonvanishing,
    spps_eval,
)
from nsbf.oracle import propagate, solution_reference

PI = math.pi


@pytest.fixture(scope="module")
def grid():
    return make_grid(PI, 1998)


def _homogeneous(grid, q):
    q = sample(grid, q)
    return solve_homogeneous(grid, q, 1.0), solve_homogeneous(grid, q, grid.nodes)


class TestFormalPowers:
    def test_zero_potential(self, grid):
        f0, _ = _homogeneous(grid, lambda x: 0.0)
        table = formal_powers(grid, f0, 6)
        xs = np.asarray(grid.nodes, dtype=float)
        for k in range(7):
            assert float(np.max(np.abs(np.asarray(table.phi[k], float) - xs**k))) < 1e-10
        assert float(np.max(np.abs(table.dev_ratio))) == 0.0

    def test_constant_potential_closed_forms(self, grid):
        f0, _ = _homogeneous(grid, lambda x: 1.0)
        table = formal_powers(grid, f0, 2)
        xs = np.asarray(grid.nodes, dtype=float)
        assert float(np.max(np.abs(np.asarray(table.phi[0], float) - np.cosh(xs)))) < 1e-12
        assert float(np.max(np.abs(np.asarray(table.phi[1], float) - np.sinh(xs)))) < 1e-12

    def test_exponential_against_reference(self, grid):
        f0, _ = _homogeneous(grid, np.exp)
        table = formal_powers(grid, f0, 2)
        y, _ = propagate(np.exp, PI, [0.0], np.array([1.0, 0.0]))
        ref = float(y[0, 0].real)
        assert abs(float(table.phi[0, -1]) - ref) < 1e-10 * abs(ref)

    def test_origin_values(self, grid):
        f0, _ = _homogeneous(grid, np.exp)
        table = formal_powers(grid, f0, 5)
        assert float(table.phi[0, 0]) == 1.0
        for k in range(1, 6):
            assert float(table.phi[k, 0]) == 0.0

    def test_monomial_ratio_near_origin(self, grid):
        f0, _ = _homogeneous(grid, np.exp)
        table = formal_powers(grid, f0, 5)
        xs = np.asarray(grid.nodes, dtype=np.longdouble)
        for k in range(6):
            for j in (1, 2, 3):
                ratio = float(table.phi[k, j] / xs[j] ** k)
                assert abs(ratio - 1.0) < 1e-3

    def test_near_zero_rejected(self, grid):
        f0, _ = _homogeneous(grid, lambda x: -1.0)  # cos x vanishes at pi/2
        with pytest.raises(NearVanishingError):
            formal_powers(grid, f0, 3)

    def test_growth_sanity(self, grid):
        f0, _ = _homogeneous(grid, np.exp)
        table = formal_powers(grid, f0, 30)
        assert np.all(np.isfinite(np.asarray(table.phi, dtype=float)))


class TestNonvanishingRoute:
    def test_zero_potential_roundtrip(self, grid):
        f0, f1 = _homogeneous(grid, lambda x: 0.0)
        table = formal_powers_nonvanishing(grid, f0, f1, 6)
        xs = np.asarray(grid.nodes, dtype=float)
        for k in range(7):
            dev = np.abs(np.asarray(table.phi[k], float) - xs**k)
            assert float(np.max(dev)) < 1e-11
        assert table.used_nonvanishing

    def test_constant_potential_cross_route(self, grid):
        f0, f1 = _homogeneous(grid, lambda x: 1.0)
        direct = formal_powers(grid, f0, 4)
        fallback = formal_powers_nonvanishing(grid, f0, f1, 4)
        xs = np.asarray(grid.nodes, dtype=float)
        assert float(np.max(np.abs(np.asarray(fallback.phi[0], float) - np.cosh(xs)))) < 1e-11
        assert float(np.max(np.abs(np.asarray(fallback.phi[1], float) - np.sinh(xs)))) < 1e-11
        dev = np.abs(np.asarray(direct.phi - fallback.phi, dtype=float))
        assert float(np.max(dev)) < 1e-11 * max(1.0, float(np.max(np.abs(direct.phi))))

    def test_vanishing_f0_covered(self, grid):
        # q = -1: f0 = cos x has a zero inside [0, pi]; only this route works
        f0, f1 = _homogeneous(grid, lambda x: -1.0)
        table = formal_powers_nonvanishing(grid, f0, f1, 4)
        xs = np.asarray(grid.nodes, dtype=float)
        assert float(np.max(np.abs(np.asarray(table.phi[0], float) - np.cos(xs)))) < 1e-11
        assert float(np.max(np.abs(np.asarray(table.phi[1], float) - np.sin(xs)))) < 1e-11

    @pytest.mark.parametrize(
        "q",
        [np.exp, lambda x: 2.0 + np.sin(3.0 * x), lambda x: 0.5 * x * x],
        ids=["exp", "sin", "quadratic"],
    )
    def test_route_independence_smooth_potentials(self, grid, q):
        f0, f1 = _homogeneous(grid, q)
        direct = formal_powers(grid, f0, 10)
        fallback = formal_powers_nonvanishing(grid, f0, f1, 10)
        scale = 1.0 + np.abs(np.asarray(direct.phi, dtype=float))
        dev = np.abs(np.asarray(direct.phi - fallback.phi, dtype=float)) / scale
        assert float(np.max(dev)) < 1e-10


class TestSppsEval:
    def test_value_at_origin(self, grid):
        f0, _ = _homogeneous(grid, np.exp)
        table = formal_powers(grid, f0, 10)
        assert spps_eval(table, 2.7 + 0.3j, 0, 10) == 1.0

    def test_zero_potential_exponential(self):
        g = make_grid(1.0, 300)
        f0 = solve_homogeneous(g, sample(g, lambda x: 0.0), 1.0)
        table = formal_powers(g, f0, 30)
        val = spps_eval(table, 1.0, 300, 30)
        assert abs(val - np.exp(1j)) < 1e-14

    def test_exponential_against_reference(self, grid):
        f0, _ = _homogeneous(grid, np.exp)
        table = formal_powers(grid, f0, 60)
        ref = solution_reference(np.exp, PI, [2.0])[0]
        assert abs(spps_eval(table, 2.0, grid.M, 60) - ref) < 1e-9

    def test_conjugate_symmetry_real_potential(self, grid):
        f0, _ = _homogeneous(grid, np.exp)
        table = formal_powers(grid, f0, 40)
        for w in (0.5, 1.5 + 0.2j):
            a = spps_eval(table, w, grid.M // 2, 40)
            b = spps_eval(table, -np.conj(w), grid.M // 2, 40)
            assert abs(a - np.conj(b)) < 1e-12 * (1 + abs(a))

    def test_truncation_guard(self, grid):
        f0, _ = _homogeneous(grid, np.exp)
        table = formal_powers(grid, f0, 5)
        with pytest.raises(ValueError):
            spps_eval(table, 1.0, 0, 6)
