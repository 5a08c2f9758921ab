import math
import time

import numpy as np
import pytest
from scipy import special

from nsbf import (
    ZeroOmegaError,
    LimitError,
    build_model,
    char_values,
    epsN_surrogate,
    error_envelope,
    eval_auto,
    eval_uN,
    eval_uN_tilde,
    sine_solution,
    spps_eval,
)
from nsbf.oracle import solution_reference

from conftest import const_q_solution
from crosschecks import solution_reference_extended

PI = math.pi


class TestBuildModel:
    def test_zero_potential_tables_vanish(self, model_zero):
        assert float(np.max(np.abs(model_zero.beta.beta))) <= 1e-12
        assert float(np.max(np.abs(model_zero.alpha.alpha))) <= 1e-12

    def test_build_time_desk_scale(self):
        t0 = time.time()
        build_model("exp(x)", PI, 1998, 25)
        assert time.time() - t0 < 2.0

    def test_table_extents(self, model_exp):
        assert model_exp.beta.n_max >= model_exp.N
        assert model_exp.alpha.n_max >= model_exp.N + 2

    def test_with_truncation_shares_tables(self, model_exp):
        sub = model_exp.with_truncation(5)
        assert sub.N == 5
        assert sub.alpha is model_exp.alpha

    def test_callable_and_array_inputs(self):
        m1 = build_model(math.exp, PI, 102, 4)
        xs = np.asarray(m1.grid.nodes, dtype=float)
        m2 = build_model(np.exp(xs), PI, 102, 4)
        assert float(np.max(np.abs(m1.q - m2.q))) < 1e-14 * math.exp(PI)

    def test_complex_constant_potential_closed_form(self):
        import cmath

        q0 = 1.0 + 0.3j
        model = build_model(np.full(1999, q0), PI, 1998, 25)
        assert model.is_complex
        for w in (2.0, 10.0, 50.0):
            wp = cmath.sqrt(w * w - q0)
            for j in (499, 999, 1998):
                x = float(model.grid.nodes[j])
                exact = cmath.cos(wp * x) + 1j * w * cmath.sin(wp * x) / wp
                assert abs(eval_uN(model, w, j) - exact) < 1e-9
                assert abs(eval_uN_tilde(model, w, j) - exact) < 5e-7

    def test_zero_of_f0_between_nodes_takes_nonvanishing_route(self):
        # f0 = cos(2x): its zeros pi/4 and 3 pi/4 fall midway between
        # nodes, where |f0| stays above the 1e-3 floor (it is sin(h) there)
        model = build_model("-4", PI, 1998, 25)
        assert model.powers.used_nonvanishing
        w, j = 2.5, 999
        x = float(model.grid.nodes[j])
        k = math.sqrt(w * w + 4.0)
        exact = math.cos(k * x) + 1j * w * math.sin(k * x) / k
        assert abs(eval_auto(model, w, j) - exact) <= 1e-12 * abs(exact)


class TestEvalPlainRepresentation:
    def test_zero_potential_exact(self, model_zero):
        for w in (0.0, 2.0, 50.0, -3.0):
            for j in (0, 999, 1998):
                x = float(model_zero.grid.nodes[j])
                assert abs(
                    eval_uN_tilde(model_zero, w, j) - np.exp(1j * w * x)
                ) < 1e-13

    def test_value_one_at_origin(self, model_exp):
        for w in (0.0, 1.0, 17.5, 3 + 2j):
            assert eval_uN_tilde(model_exp, w, 0) == 1.0 + 0.0j

    def test_exponential_against_reference(self, model_exp):
        ref = solution_reference(math.exp, PI, [10.0])[0]
        val = eval_uN_tilde(model_exp, 10.0, model_exp.grid.M)
        assert abs(val - ref) < 5e-8

    def test_entire_at_zero_omega(self, model_one):
        # omega = 0 reduces to the homogeneous solution f0 = cosh
        j = model_one.grid.M
        assert abs(
            eval_uN_tilde(model_one, 0.0, j) - math.cosh(PI)
        ) < 1e-10


class TestEvalImprovedRepresentation:
    def test_zero_potential_exact(self, model_zero):
        for w in (2.0, 50.0, -7.0):
            for j in (0, 999, 1998):
                x = float(model_zero.grid.nodes[j])
                assert abs(eval_uN(model_zero, w, j) - np.exp(1j * w * x)) < 1e-13

    def test_value_one_at_origin(self, model_exp):
        for w in (1.0, 17.5, 3 + 2j):
            assert abs(eval_uN(model_exp, w, 0) - 1.0) < 1e-14

    def test_zero_omega_rejected(self, model_exp):
        with pytest.raises(ZeroOmegaError):
            eval_uN(model_exp, 0.0, 100)

    def test_constant_potential_closed_form(self, model_one):
        grid = model_one.grid
        worst = 0.0
        for w in (2.0, 10.0, 50.0, 100.0):
            for x_req in (PI / 4, PI / 2, PI):
                j = grid.nearest_index(x_req)
                x = float(grid.nodes[j])
                exact = const_q_solution(1.0, w, x)
                worst = max(worst, abs(eval_uN(model_one, w, j) - exact))
        assert worst <= 1e-10

    def test_negative_omega_sign_substitution(self, model_exp):
        j = model_exp.grid.M
        a = eval_uN(model_exp, -12.5, j)
        b = eval_uN(model_exp, 12.5, j)
        assert abs(a - np.conj(b)) < 1e-12  # real potential

    def test_conjugate_symmetry_both_representations(self, model_exp):
        j = 1500
        for w in (3.7, 40.0):
            assert abs(
                eval_uN(model_exp, -w, j) - np.conj(eval_uN(model_exp, w, j))
            ) < 1e-12
            assert abs(
                eval_uN_tilde(model_exp, -w, j)
                - np.conj(eval_uN_tilde(model_exp, w, j))
            ) < 1e-12

    def test_representation_agreement_with_reference(self, model_exp):
        j = model_exp.grid.M
        for w in (5.0, 20.0):
            ref = solution_reference(math.exp, PI, [w])[0]
            assert abs(eval_uN(model_exp, w, j) - ref) < 1e-6
            assert abs(eval_uN_tilde(model_exp, w, j) - ref) < 1e-6


class TestEvalAuto:
    def test_zero_omega_uses_power_series(self, model_one):
        j = model_one.grid.M
        assert abs(eval_auto(model_one, 0.0, j) - math.cosh(PI)) < 1e-10

    def test_continuity_across_tiny_omega(self, model_exp):
        j = model_exp.grid.M
        w = 1e-6
        series = spps_eval(
            model_exp.powers, w, j, model_exp.powers.k_max
        )
        assert abs(eval_auto(model_exp, w, j) - series) <= 1e-9

    def test_dispatch_above_switch(self, model_exp):
        j = 1200
        assert eval_auto(model_exp, 100.0, j) == eval_uN(model_exp, 100.0, j)
        assert eval_auto(model_exp, 0.5, j) == eval_uN_tilde(model_exp, 0.5, j)


def paine_solution(omega: float, x: float) -> complex:
    """u(omega, x) for q = 1/(x+0.1)^2 = (nu^2 - 1/4)/t^2, t = x + 0.1:
    sqrt(t) times Hankel functions of order nu = sqrt(5/4), matched to
    u = 1, u' = i omega at t = 0.1."""
    nu = math.sqrt(1.25)

    def basis(t):  # rows u, u' of sqrt(t) H1_nu(omega t), sqrt(t) H2_nu(omega t)
        h = np.array([special.hankel1(nu, omega * t), special.hankel2(nu, omega * t)])
        dh = np.array([special.h1vp(nu, omega * t), special.h2vp(nu, omega * t)])
        return np.array([math.sqrt(t) * h, h / (2 * math.sqrt(t)) + math.sqrt(t) * omega * dh])

    return basis(x + 0.1)[0] @ np.linalg.solve(basis(0.1), [1.0, 1j * omega])


def worst_relative_error(model, evaluate, omegas, nodes, exact):
    xs = np.asarray(model.grid.nodes, dtype=float)
    return max(
        abs(evaluate(model, w, j) / exact(w, xs[j]) - 1.0)
        for w in omegas for j in nodes
    )


class TestSmallX:
    """Both representations at the first nodes, x < b/100."""

    def test_paine(self):
        model = build_model("1/(x+0.1)^2", PI, 1998, 25)
        assert worst_relative_error(
            model, eval_auto, (1.3923, 5.0), range(1, 20), paine_solution
        ) <= 1e-10
        assert worst_relative_error(
            model, eval_uN_tilde, (0.5, 5.0, 20.0), range(1, 40), paine_solution
        ) <= 1e-10

    def test_negative_constant_plain(self):
        model = build_model("-1.5", PI, 1998, 25)
        exact = lambda w, x: const_q_solution(-1.5, w, x)
        assert worst_relative_error(
            model, eval_uN_tilde, (0.5,), range(1, 40), exact
        ) <= 1e-10


class TestSineSolution:
    def test_zero_potential(self, model_zero):
        for w in (3.3, 11.0):
            for j in (0, 999, 1998):
                x = float(model_zero.grid.nodes[j])
                assert abs(
                    sine_solution(model_zero, w, j) - math.sin(w * x) / w
                ) < 1e-13

    def test_vanishes_at_origin(self, model_exp):
        assert sine_solution(model_exp, 4.2, 0) == 0.0

    def test_constant_potential_zeros(self, model_one):
        j = model_one.grid.M
        for m in (1, 5, 20):
            w = math.sqrt(1.0 + m * m)
            assert abs(sine_solution(model_one, w, j)) < 1e-11

    def test_plain_representation_variant(self, model_exp):
        j = model_exp.grid.M
        a = sine_solution(model_exp, 8.0, j, representation="improved")
        b = sine_solution(model_exp, 8.0, j, representation="plain")
        assert a == pytest.approx(b, abs=1e-7)

    def test_zero_omega_rejected(self, model_exp):
        with pytest.raises(ZeroOmegaError):
            sine_solution(model_exp, 0.0, 10)


class TestCharValues:
    OMEGAS = np.array([0.25, 0.7, 2.23, 8.7, 30.1, 120.3, 459.9])

    @pytest.mark.parametrize("rep", ["improved", "plain"])
    def test_matches_scalar_sine_solution(self, model_exp, rep):
        j = model_exp.grid.M
        got = char_values(model_exp, self.OMEGAS, rep)
        for w, s in zip(self.OMEGAS, got):
            ref = sine_solution(model_exp, float(w), j, representation=rep)
            # s is of size 1/omega away from its zeros
            assert abs(s - ref) <= 1e-14 * max(abs(ref), 1.0 / w)

    @pytest.mark.parametrize("rep", ["improved", "plain"])
    def test_derivative_against_finite_differences(self, model_exp, rep):
        w = self.OMEGAS
        s, ds = char_values(model_exp, w, rep, derivative=True)
        assert np.array_equal(s, char_values(model_exp, w, rep))
        h = 1e-5 * np.maximum(1.0, w)
        f = lambda d: char_values(model_exp, w + d, rep)
        fd = (8.0 * (f(h) - f(-h)) - (f(2 * h) - f(-2 * h))) / (12.0 * h)
        assert np.all(np.abs(ds - fd) <= 1e-7 * np.abs(fd))

    def test_rejects_nonpositive_omega(self, model_exp):
        with pytest.raises(ValueError):
            char_values(model_exp, np.array([1.0, 0.0]))


class TestErrorEnvelope:
    def test_zero_potential_surrogate_vanishes(self, model_zero):
        assert float(np.max(epsN_surrogate(model_zero))) == 0.0

    def test_monotone_in_truncation(self, model_exp):
        j = model_exp.grid.M
        eps25 = epsN_surrogate(model_exp)[j]
        eps5 = epsN_surrogate(model_exp.with_truncation(5))[j]
        assert eps25 <= eps5

    def test_real_omega_form(self, model_exp):
        j = model_exp.grid.M
        x = float(model_exp.grid.nodes[j])
        eps = epsN_surrogate(model_exp)
        env = error_envelope(model_exp, 7.0, j, eps)
        assert env == pytest.approx(
            float(eps[j]) * math.sqrt(2 * x) / 49.0, rel=1e-12
        )

    def test_imaginary_limit_continuity(self, model_exp):
        j = model_exp.grid.M
        a = error_envelope(model_exp, 5.0 + 1e-12j, j)
        b = error_envelope(model_exp, 5.0, j)
        assert a == pytest.approx(b, rel=1e-9)

    def test_complex_omega_matches_sinh_form(self, model_exp):
        eps = epsN_surrogate(model_exp)
        for j in (50, 999, model_exp.grid.M):
            x = float(model_exp.grid.nodes[j])
            for im in (1e-6, 0.3, -2.0, 7.5, 50.0 / x):
                w = 4.0 + 1j * im
                direct = (
                    float(eps[j]) * math.sqrt(math.sinh(2 * im * x) / im)
                    / abs(w) ** 2
                )
                env = error_envelope(model_exp, w, j, eps)
                assert env == pytest.approx(direct, rel=1e-14)

    def test_large_imaginary_part_stays_finite(self, model_exp):
        # sinh(2 * 120 * 3) overflows; the envelope, about 1e149, does not
        j = model_exp.grid.nearest_index(3.0)
        env = error_envelope(model_exp, 200 + 120j, j)
        assert math.isfinite(env) and env > 0.0
        with pytest.raises(LimitError):
            error_envelope(model_exp, 1 + 300j, model_exp.grid.M)

    def test_complex_omega_positive(self, model_exp):
        env = error_envelope(model_exp, 3 + 2j, model_exp.grid.M)
        assert math.isfinite(env) and env > 0.0

    def test_scaled_residual_bounded_by_envelope(self, model_exp):
        # the surrogate (saturated at its noise floor) with a safety
        # factor of 100 dominates the actual deviation from the reference
        j = model_exp.grid.M
        eps = epsN_surrogate(model_exp)
        for w in (100.0, 300.0, 1000.0):
            ref = solution_reference_extended(math.exp, PI, [w])[0]
            r = abs(eval_uN(model_exp, w, j) - ref)
            assert r <= 100.0 * error_envelope(model_exp, w, j, eps)

    def test_zero_omega_rejected(self, model_exp):
        with pytest.raises(ZeroOmegaError):
            error_envelope(model_exp, 0.0, 10)
