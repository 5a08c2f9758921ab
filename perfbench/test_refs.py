"""Tests of the benchmark's references and plans.

    python3 -m pytest perfbench -q

They pin the literature values the stored eigenvalue table must reproduce,
check the closed forms against the differential equation itself, and check
that a round attempts the same operations for every seed.
"""

from __future__ import annotations

import cmath
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import plan  # noqa: E402
import refs  # noqa: E402


@pytest.fixture(scope="module")
def table():
    return refs.load_table()


def test_exp_literature_values(table):
    assert table["exp"][0] == pytest.approx(4.8966693800, abs=1e-10)
    assert abs(table["exp"][459] - 211607.047634847) < 3e-10


def test_paine_first_eigenvalue(table):
    assert table["paine"][0] == pytest.approx(1.5198658211, abs=1e-10)


def test_constant_eigenvalues(table):
    assert table["neg3"][0] == -2.0
    assert table["neg09"][0] == pytest.approx(0.1, abs=1e-15)
    assert len(table["paine"]) == len(table["exp"]) == refs.TABLE_COUNT


def test_stored_table_is_remade_by_its_command(table):
    # the Rayleigh-Ritz eigenvalues carry round-off of about eps * ||H||, a few
    # 1e-10, which moves with the BLAS build and its thread count
    fresh = refs.make_table()
    for key in ("exp", "paine", "neg09", "neg3"):
        np.testing.assert_allclose(fresh[key], table[key], rtol=1e-13, atol=2e-9)


def test_eigenvalue_bounds_hold_for_the_references(table):
    n2 = np.arange(1, refs.TABLE_COUNT + 1, dtype=float) ** 2
    for key, (q_min, q_max) in plan.SPECTRUM_Q_RANGE.items():
        lam = np.asarray(table[key])
        assert np.all(n2 + q_min - 1e-9 * n2 <= lam)
        assert np.all(lam <= n2 + q_max + 1e-9 * n2)


def _residual(u, q, omega, x, h=1e-4):
    """|u'' - (q - omega^2) u| / max(1, |u|) by central differences."""
    d2 = (u(x + h) - 2.0 * u(x) + u(x - h)) / (h * h)
    return abs(d2 - (q(x) - omega * omega) * u(x)) / max(1.0, abs(u(x)))


@pytest.mark.parametrize("omega", [0.7, 3.0, 11.0 + 2.0j, 25.0 - 4.0j])
@pytest.mark.parametrize("c", [2.5, -1.5, 1.0 + 2.0j])
def test_constant_solution_solves_the_equation(c, omega):
    u = lambda x: refs.constant_u(c, omega, x)  # noqa: E731
    assert u(0.0) == pytest.approx(1.0)
    h = 1e-6
    assert (u(h) - u(-h)) / (2 * h) == pytest.approx(1j * omega, rel=1e-6)
    for x in (0.4, 1.7, 3.0):
        assert _residual(u, lambda _: c, omega, x) < 1e-4 * max(1.0, abs(omega) ** 2)


@pytest.mark.parametrize("omega", [0.7, 3.0, 11.0 + 2.0j, 25.0 - 4.0j])
@pytest.mark.parametrize("c, a", [(1.0, 0.1), (0.4, 0.7)])
def test_inverse_square_solution_solves_the_equation(c, a, omega):
    def u(x):
        return complex(refs.inverse_square_u(c, a, [omega], [x])[0])

    q = lambda x: c / (x + a) ** 2  # noqa: E731
    assert u(0.0) == pytest.approx(1.0, rel=1e-12)
    h = 1e-6
    assert (u(h) - u(-h)) / (2 * h) == pytest.approx(1j * omega, rel=1e-6)
    for x in (0.4, 1.7, 3.0):
        assert _residual(u, q, omega, x) < 1e-4 * max(1.0, abs(omega) ** 2)


def test_characteristic_functions_vanish_at_eigenvalues(table):
    lam = np.asarray(table["paine"][:5])
    s = refs.inverse_square_s(1.0, 0.1, lam, math.pi)
    k = np.sqrt(lam)
    assert np.all(np.abs(s) < 1e-12 * np.maximum(1.0, 1.0 / k))


def test_negative_constants_put_a_zero_of_f0_on_a_node():
    for seed in range(5):
        for req in plan.make_round("build_sweep", seed):
            if req["family"] == "constant_neg":
                c = req["ref"][1]["c"][0]
                M, b = req["M"], req["b"]
                x = np.arange(M + 1) * (b / M)
                assert np.min(np.abs(np.cos(math.sqrt(-c) * x))) < 1e-9


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_rounds_are_reproducible_and_of_fixed_make_up(workload):
    a = plan.make_round(workload, 7)
    assert a == plan.make_round(workload, 7)
    b = plan.make_round(workload, 8)
    assert a != b
    assert len(a) == len(b)
    if workload == "spectrum":
        for rnd in (a, b):
            faults = [r for r in rnd if r["model"] == plan.SPECTRUM_KNOWN_FAULT]
            assert sorted((r["N"], r["rep"], r["count"]) for r in faults) == sorted(
                (n, rep, count) for n in plan.SPECTRUM_TRUNCATIONS
                for rep, count in plan.SPECTRUM_FAULT_SLOTS)


@pytest.mark.parametrize("workload", ("spectrum", "solve_grid", "build_sweep"))
def test_fault_requests_do_not_depend_on_the_seed(workload):
    def faults(seed):
        rnd = plan.make_round(workload, seed)
        return sorted(repr({k: v for k, v in r.items() if k != "id"})
                      for r in rnd if "fault" in r)

    assert faults(1)
    assert faults(1) == faults(2) == faults(3)


def test_check_points_carry_the_grid_node():
    for req in plan.make_round("build_sweep", 5):
        for _, _, j, x in req["checks"]:
            assert x == float(np.longdouble(j) * (np.longdouble(req["b"]) / req["M"]))
    for req in plan.make_round("solve_grid", 5):
        for _, _, j, x, _ in req["pairs"]:
            assert x == pytest.approx(j * math.pi / plan.GRID_M, rel=1e-15)


def test_solve_grid_inputs_stay_in_range():
    for req in plan.make_round("solve_grid", 3):
        if "fault" in req:
            continue
        for re, im, j, _, plain in req["pairs"]:
            r = abs(complex(re, im))
            assert plan.SOLVE_OMEGA_RANGE[0] * (1 - 1e-12) <= r <= plan.SOLVE_OMEGA_RANGE[1] * (1 + 1e-12)
            assert abs(im) * math.pi <= plan.SOLVE_IM_TIMES_B + 1e-9
            assert j >= plan.GRID_M // 50
            assert not plain or r <= plan.SOLVE_PLAIN_OMEGA_MAX


def test_symmetric_strata_have_a_fixed_median():
    import random
    for seed in range(4):
        vals = plan.symmetric_strata(random.Random(seed), 12)
        assert sorted(vals)[5] + sorted(vals)[6] == pytest.approx(1.0)
        assert cmath.isclose(sum(vals), 6.0)
        for k, v in enumerate(sorted(vals)):
            assert k / 12 <= v <= (k + 1) / 12
