import math

import numpy as np
import pytest

from nsbf import (
    LimitError,
    accuracy_indicators,
    alpha_recurrence,
    alpha_seed,
    beta_coeffs,
    build_alpha_table,
    formal_powers,
    indefinite_integral,
    legendre_coeffs,
    make_grid,
    sample,
    solve_homogeneous,
)
from nsbf.grid import SampledFunction
from nsbf.oracle import propagate

from crosschecks import (
    alpha_direct,
    dual_route_deviation,
    inverse_relation_deviation,
    moment_table,
)

PI = math.pi


@pytest.fixture(scope="module")
def exp_tables():
    grid = make_grid(PI, 1998)
    q = sample(grid, math.exp)
    Q = indefinite_integral(q)
    Q2 = indefinite_integral(SampledFunction(grid, q.values * q.values))
    f0, f1 = solve_homogeneous(q)
    phi = formal_powers(f0, 33)
    leg = legendre_coeffs(40)
    beta = beta_coeffs(phi, leg, 30)
    moments = moment_table(q, Q, phi, 28)
    alpha = build_alpha_table(q, Q, phi, beta, 32)
    return grid, q, Q, Q2, phi, leg, beta, moments, alpha


@pytest.fixture(scope="module")
def zero_tables():
    grid = make_grid(PI, 1998)
    q = SampledFunction(grid, np.zeros(grid.M + 1, dtype=np.longdouble))
    Q = indefinite_integral(q)
    f0, f1 = solve_homogeneous(q)
    phi = formal_powers(f0, 14)
    leg = legendre_coeffs(14)
    beta = beta_coeffs(phi, leg, 12)
    moments = moment_table(q, Q, phi, 12)
    alpha = build_alpha_table(q, Q, phi, beta, 12)
    return grid, q, Q, phi, leg, beta, moments, alpha


class TestLegendreCoeffs:
    def test_low_orders(self):
        leg = legendre_coeffs(3)
        assert leg.l[0, 0] == 1.0
        assert leg.l[2, 0] == pytest.approx(-0.5)
        assert leg.l[2, 2] == pytest.approx(1.5)
        assert leg.l[2, 1] == 0.0

    def test_row_sums_are_one(self):
        leg = legendre_coeffs(20)
        s = float(np.sum(leg.l[10]))
        assert abs(s - 1.0) < 1e-10

    def test_parity_zeros(self):
        leg = legendre_coeffs(9)
        for n in range(10):
            for k in range(n + 1):
                if (n - k) % 2 == 1:
                    assert leg.l[n, k] == 0.0

    def test_bonnet_consistency(self):
        leg = legendre_coeffs(15)
        for n in range(1, 15):
            lhs = (n + 1) * leg.l[n + 1]
            rhs = np.zeros_like(lhs)
            rhs[1:] = (2 * n + 1) * leg.l[n, :-1]
            rhs -= n * leg.l[n - 1]
            assert float(np.max(np.abs(lhs - rhs))) < 1e-14 * float(
                np.max(np.abs(lhs))
            )

    def test_order_cap(self):
        with pytest.raises(LimitError):
            legendre_coeffs(121)


class TestBetaCoeffs:
    def test_zero_potential_all_zero(self, zero_tables):
        *_, beta, _, _ = zero_tables
        assert float(np.max(np.abs(beta.beta))) <= 1e-12

    def test_constant_potential_first_row(self):
        grid = make_grid(PI, 1998)
        q = sample(grid, lambda x: 1.0)
        f0, _ = solve_homogeneous(q)
        phi = formal_powers(f0, 4)
        beta = beta_coeffs(phi, legendre_coeffs(4), 4)
        xs = np.asarray(grid.nodes, dtype=float)
        mask = xs >= 0.01 * PI
        target = (np.cosh(xs) - 1.0) / 2.0
        dev = np.abs(np.asarray(beta.beta[0], float) - target)[mask]
        assert float(np.max(dev)) < 1e-11

    def test_exponential_first_row_against_reference(self, exp_tables):
        grid, *_ = exp_tables
        beta = exp_tables[6]
        y, _ = propagate(math.exp, PI, [0.0], np.array([1.0, 0.0]))
        phi0_ref = float(y[0, 0].real)
        expected = (phi0_ref - 1.0) / 2.0
        assert abs(float(beta.beta[0, -1]) - expected) < 1e-9 * abs(expected)

    def test_real_potential_gives_real_table(self, exp_tables):
        beta = exp_tables[6]
        assert not np.iscomplexobj(beta.beta)

    def test_cancellation_flags_mark_deep_cancellation(self, exp_tables):
        grid = exp_tables[0]
        beta = exp_tables[6]
        # low rows are fully resolved from b/100 on, high rows cancel by
        # many orders
        xs = np.asarray(grid.nodes, dtype=float)
        assert not beta.flags[:5, xs >= 0.01 * PI].any()
        assert beta.flags[20:, grid.M].any()


class TestMoments:
    def test_zero_potential(self, zero_tables):
        moments = zero_tables[6]
        assert float(np.max(np.abs(moments.k))) <= 1e-12

    def test_first_moment_closed_form(self, exp_tables):
        grid = exp_tables[0]
        moments = exp_tables[7]
        j = grid.nearest_index(1.0)
        x = float(grid.nodes[j])
        expected = math.exp(x) / 4.0 - (math.exp(x) - 1.0) ** 2 / 8.0 - 0.25
        assert float(moments.k[0, j]) == pytest.approx(expected, abs=1e-14)
        # the closed form at x = 1 evaluates to 0.060508901863191...
        assert expected == pytest.approx(0.0605089018631914, abs=2e-5)

    def test_second_moment_against_reconstruction(self, exp_tables):
        # integrate t^2 against the reconstructed kernel expansion; by
        # orthogonality only rows n <= 2 survive, so this cross-checks the
        # moment row against the alpha rows through an independent
        # quadrature
        grid = exp_tables[0]
        moments = exp_tables[7]
        alpha = exp_tables[8]
        j = grid.M
        x = float(grid.nodes[j])
        t = np.linspace(-x, x, 4001)
        kernel = np.zeros_like(t)
        for n in range(41):
            if n <= alpha.n_max:
                a_n = float(alpha.alpha[n, j])
                kernel += a_n / x * np.polynomial.legendre.legval(
                    t / x, [0.0] * n + [1.0]
                )
        recon = np.trapezoid(kernel * t * t, t)
        expected = float(moments.k[2, j])
        assert abs(recon - expected) <= 1e-6 * max(1.0, abs(expected))


class TestAlphaSeed:
    def test_zero_potential(self, zero_tables):
        alpha = zero_tables[7]
        assert float(np.max(np.abs(alpha.alpha[:4]))) <= 1e-12

    def test_exponential_spot_value(self, exp_tables):
        grid, q, Q, _, phi, *_ = exp_tables
        moments = exp_tables[7]
        rows = alpha_seed(q, Q, phi)
        j = grid.nearest_index(1.0)
        assert float(rows[0, j]) == pytest.approx(
            float(moments.k[0, j]) / 2.0, abs=1e-16
        )

    def test_seed_matches_direct(self, exp_tables):
        grid, q, Q, _, phi, leg, _, moments, _ = exp_tables
        rows = alpha_seed(q, Q, phi)
        xs = np.asarray(grid.nodes, dtype=float)
        mask = xs >= 0.01 * PI
        for n in range(4):
            direct, _ = alpha_direct(moments, leg, n)
            dev = np.abs(np.asarray(rows[n] - direct, dtype=float))[mask]
            assert float(np.max(dev)) < 1e-12 * max(
                1.0, float(np.max(np.abs(np.asarray(direct, float))))
            )


class TestAlphaRecurrence:
    def test_zero_potential(self, zero_tables):
        alpha = zero_tables[7]
        assert float(np.max(np.abs(alpha.alpha))) <= 1e-12

    def test_row4_matches_direct(self, exp_tables):
        grid, *_, leg, beta, moments, alpha = exp_tables
        direct, _ = alpha_direct(moments, leg, 4)
        rec = alpha.alpha[4]
        j = grid.M
        assert abs(float(direct[j] - rec[j])) < 1e-10 * abs(float(direct[j]))

    def test_dual_route_where_resolved(self, exp_tables):
        # the two routes agree pointwise-relatively wherever the direct
        # sum is not flagged as cancellation-dominated
        *_, leg, beta, moments, alpha = exp_tables
        worst, tested_rows = dual_route_deviation(alpha.alpha, moments, leg)
        assert tested_rows >= 10
        assert worst <= 1e-7

    def test_inverse_relation(self, exp_tables):
        grid, *_, beta, moments, alpha = exp_tables
        assert inverse_relation_deviation(alpha.alpha, beta.beta, grid) <= 1e-9

    def test_prerequisites(self, exp_tables):
        beta, alpha = exp_tables[6], exp_tables[8]
        with pytest.raises(ValueError):
            alpha_recurrence(beta, alpha.alpha, 3)


class TestParsevalTail:
    def test_partial_sums_bounded(self, exp_tables):
        grid, *_, alpha = exp_tables
        j = grid.M
        x = float(grid.nodes[j])
        partial = 0.0
        previous = -1.0
        for n in range(min(alpha.n_max, 40) + 1):
            partial += 2.0 * float(alpha.alpha[n, j]) ** 2 / ((2 * n + 1) * x)
            assert partial >= previous
            previous = partial
        assert partial < 1e6


class TestAccuracyIndicators:
    def test_zero_potential(self, zero_tables):
        grid, q, Q, *_ = zero_tables
        alpha = zero_tables[7]
        eps1, eps2 = accuracy_indicators(q, Q, Q, alpha, 10)
        assert float(np.max(eps1)) <= 1e-12
        assert float(np.max(eps2)) <= 1e-12

    def test_convergence_with_truncation(self, exp_tables):
        grid, q, Q, Q2, *_ = exp_tables
        alpha = exp_tables[8]
        e1_5, e2_5 = accuracy_indicators(q, Q, Q2, alpha, 5)
        e1_25, e2_25 = accuracy_indicators(q, Q, Q2, alpha, 25)
        assert float(e1_5[-1]) >= 10.0 * float(e1_25[-1])
        assert float(e2_5[-1]) >= 10.0 * float(e2_25[-1])

    def test_antidiagonal_closed_form_exabout(self, exp_tables):
        # for q = e^x the antidiagonal kernel value reduces to e^x/8
        grid, q, Q, Q2, *_ = exp_tables
        alpha = exp_tables[8]
        j = grid.M
        x = float(grid.nodes[j])
        alt = sum(
            (-1) ** n * float(alpha.alpha[n, j]) for n in range(26)
        )
        assert abs(alt / x - math.exp(x) / 8.0) < 1e-3
        _, eps2 = accuracy_indicators(q, Q, Q2, alpha, 25)
        assert abs(alt / x - math.exp(x) / 8.0) == pytest.approx(
            float(eps2[j]), rel=1e-6
        )
