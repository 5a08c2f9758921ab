import cmath
import copy
import math
import pickle
import time
import warnings

import numpy as np
import pytest
from scipy import special

from nsbf import (
    ConvergenceError,
    ExpressionEvalError,
    GridError,
    ZeroOmegaError,
    LimitError,
    build_model,
    char_values,
    epsN_surrogate,
    error_envelope,
    eval_auto,
    eval_uN,
    eval_uN_tilde,
    make_grid,
    sine_solution,
)
from nsbf import char_function, formal_powers, solution
from nsbf.bessel import IM_CAP, spherical_j_sequence, spherical_j_sum
from nsbf.formal_powers import spps_eval
from nsbf.grid import PIPELINE_CDTYPE, PIPELINE_DTYPE
from nsbf.oracle import solution_reference

from conftest import const_q_solution
from crosschecks import (
    envelope_reference,
    series_reference,
    solution_reference_extended,
)

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

    def test_negative_truncation_refused(self, model_exp):
        # N = -1 used to build a model whose plain form failed at every call
        with pytest.raises(ValueError, match="non-negative"):
            build_model("exp(x)", PI, 102, -1)
        with pytest.raises(ValueError):
            model_exp.with_truncation(-1)

    def test_infinite_interval_refused(self):
        # b = inf used to end in ConvergenceError "last increment nan"
        with pytest.raises(GridError, match="positive and finite"):
            build_model("1", math.inf, 66, 4)

    def test_truncation_cap(self):
        with pytest.raises(LimitError, match="exceeds the cap 60"):
            build_model("1", PI, 102, 61)

    def test_wrong_sample_count_refused(self):
        with pytest.raises(ValueError, match="needs 103 samples, got 102"):
            build_model(np.ones(102), PI, 102, 4)

    @pytest.mark.parametrize("b, N", [(1e-160, 25), (1e-300, 25), (1e-75, 60)])
    def test_underflowing_node_powers_refused(self, b, N):
        # x_1^2 underflows in float64 at b = 1e-160 and 1e-300 (at 1e-300
        # x_1^25 too, in the pipeline dtype); at 1e-75 with N = 60 only the
        # surrogate tail's x_1^68 does.  Each used to end in a numpy warning.
        with pytest.raises(GridError, match="too small"):
            build_model("1", b, 1998, N)

    def test_small_b_above_the_limit_builds(self):
        model = build_model("1", 1e-140, 1998, 25)
        assert np.all(np.isfinite(epsN_surrogate(model)))
        assert cmath.isfinite(eval_uN(model, 1e140, model.grid.M))

    @pytest.mark.parametrize("b", [1e150, 1e153, 1e155, 1e160, 1e300])
    def test_overflowing_node_powers_refused(self, b):
        # the build forms x^2 in float64 (past 1.3e154) and x^(N + EXTRA_ROWS)
        # in the pipeline dtype: at 1e150 only the surrogate's x^33 overflows.
        # These used to end in an OverflowError or a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match="too large"):
                build_model("0", b, 1998, 25)

    def test_large_b_below_the_limit_builds(self):
        k = 25 + solution.EXTRA_ROWS
        limit = np.finfo(PIPELINE_DTYPE).max ** (1 / PIPELINE_DTYPE(k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = build_model("0", 0.99 * float(limit), 1998, 25)
            assert np.all(np.isfinite(epsN_surrogate(model)))

    def test_diverging_picard_iteration_refused(self):
        # q = -10000 on [0, pi]: the Picard increments grow like e^{100 x}
        with pytest.raises(ConvergenceError,
                           match="did not converge in 200 iterations"):
            build_model("-10000", PI, 1998, 25)

    def test_unknown_representation_refused(self, model_exp):
        with pytest.raises(ValueError, match="unknown representation"):
            sine_solution(model_exp, 2.0, 10, "bogus")
        with pytest.raises(ValueError, match="unknown representation"):
            char_values(model_exp, np.array([2.0]), "bogus")

    def test_callable_and_array_inputs(self):
        m1 = build_model(np.exp, PI, 102, 4)
        xs = np.asarray(m1.grid.nodes, dtype=float)
        m2 = build_model(np.exp(xs), PI, 102, 4)
        assert float(np.max(np.abs(m1.q - m2.q))) < 1e-14 * math.exp(PI)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, math.inf)],
                             ids=["nan", "inf", "complex-inf"])
    def test_non_finite_samples_refused(self, bad):
        q = np.ones(103, dtype=type(bad))
        q[40] = bad
        x = float(make_grid(PI, 102).nodes[40])
        for q_input in (q, lambda _: q):
            with pytest.raises(ExpressionEvalError,
                               match=rf"potential is not finite at x={x!r}$"):
                build_model(q_input, PI, 102, 4)

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

    @pytest.mark.parametrize("q,calls", [("exp(x)", 1), ("-1", 2)])
    def test_f1_only_on_the_fallback_route(self, monkeypatch, q, calls):
        # f0 = cos(x) of q = -1 vanishes at the node pi/2
        seeds = []
        picard = solution.solve_homogeneous

        def counting(grid, q_sampled, seed):
            seeds.append(seed)
            return picard(grid, q_sampled, seed)

        monkeypatch.setattr(solution, "solve_homogeneous", counting)
        model = build_model(q, PI, 600, 8)
        assert len(seeds) == calls
        assert model.powers.used_nonvanishing == (calls == 2)

    @pytest.mark.parametrize(
        "q", ["exp(x)", "-1", np.full(601, 1.0 + 0.3j)], ids=["exp", "minus1", "complex"]
    )
    def test_noise_floors_float64_tables_pipeline_dtype(self, q):
        model = build_model(q, PI, 600, 8)
        pipeline = PIPELINE_CDTYPE if model.is_complex else PIPELINE_DTYPE
        assert model.beta.noise_floor.dtype == np.float64
        assert model.alpha.noise_floor.dtype == np.float64
        assert model.beta.beta.dtype == pipeline
        assert model.alpha.alpha.dtype == pipeline

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
        ref = solution_reference(np.exp, PI, [10.0])[0]
        val = eval_uN_tilde(model_exp, 10.0, model_exp.grid.M)
        assert abs(val - ref) < 5e-8

    def test_entire_at_zero_omega(self, model_one):
        # omega = 0 reduces to the homogeneous solution f0 = cosh
        j = model_one.grid.M
        assert abs(
            eval_uN_tilde(model_one, 0.0, j) - math.cosh(PI)
        ) < 1e-10


    def test_phase_without_a_correct_digit_refused(self, model_zero):
        # from |Re omega| x = 2^52 on, the rounded omega x is off by up to
        # half a radian; at 1e12 it is off by about 2e-4
        j = model_zero.grid.M
        for w in (1e16, -1e16 + 1j, 1e200):
            with pytest.raises(LimitError, match="2\\^52"):
                eval_uN_tilde(model_zero, w, j)
        with pytest.raises(LimitError, match="2\\^52"):
            char_values(model_zero, np.array([1.0, 1e16]), "plain")
        assert abs(eval_uN_tilde(model_zero, 1e12, j)) == pytest.approx(1.0)


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

    @pytest.mark.parametrize("w", [1e300, 1e300 + 1j, 1e-200, 1e-200j])
    def test_omega_squared_out_of_range_rejected(self, model_exp, w):
        # omega * omega is inf, nan for a complex omega, or 0
        with pytest.raises(LimitError):
            eval_uN(model_exp, w, 100)

    def test_overflowing_terms_rejected(self, model_exp):
        # omega^2 is a normal float64, but (q/4 - Q^2/8)/omega^2 at b is not
        with pytest.raises(LimitError):
            eval_uN(model_exp, 1.5e-154, model_exp.grid.M)

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
            ref = solution_reference(np.exp, PI, [w])[0]
            assert abs(eval_uN(model_exp, w, j) - ref) < 1e-6
            assert abs(eval_uN_tilde(model_exp, w, j) - ref) < 1e-6


ZERO_OMEGA_BUILDS = {
    "exp": "exp(x)",
    "paine": "1/(x+0.1)^2",
    "minus1.5": "-1.5",
    "minus4": "-4",
    "complex": np.full(1999, 2.0 + 1.5j),
}


class TestEvalAuto:
    def test_zero_omega_constant_potential_closed_form(self, model_one):
        j = model_one.grid.M
        assert abs(eval_auto(model_one, 0.0, j) - math.cosh(PI)) < 1e-10

    @pytest.mark.parametrize("q", list(ZERO_OMEGA_BUILDS))
    def test_zero_omega_is_the_plain_form(self, q):
        # one route at omega = 0: the plain form, 1 + 2 beta_0 = f0, which
        # the power series (phi_0 = f0) meets to the last bit or so
        model = build_model(ZERO_OMEGA_BUILDS[q], PI, 1998, 25)
        for j in range(model.grid.M + 1):
            u = eval_auto(model, 0.0, j)
            assert u == eval_uN_tilde(model, 0.0, j), j
            series = spps_eval(model.powers, 0.0, j, model.powers.k_max)
            assert abs(u - series) <= 2.3e-16 * abs(u), j

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


class TestNotFiniteRefused:
    """Both forms refuse a value that leaves float64, and the numpy
    overflow warning of the Bessel sum does not escape (warnings are errors
    in this suite)."""

    @pytest.fixture(scope="class")
    def model_neg(self):
        return build_model("-1.5", PI, 1998, 25)

    @pytest.mark.parametrize("call", [
        lambda m: spherical_j_sequence(5, math.nan),
        lambda m: spherical_j_sum([1.0] * 6, math.nan),
        lambda m: spherical_j_sequence(5, complex(1.0, math.nan)),
        lambda m: spherical_j_sequence(5, math.inf),
        lambda m: spherical_j_sequence(5, -math.inf),
        lambda m: spherical_j_sequence(5, complex(math.inf, 1.0)),
        lambda m: spherical_j_sequence(5, complex(math.inf, math.nan)),
        lambda m: eval_uN(m, math.nan, m.grid.M),
        lambda m: eval_uN_tilde(m, math.nan, m.grid.M),
        lambda m: eval_auto(m, math.nan, m.grid.M),
        lambda m: sine_solution(m, math.nan, m.grid.M),
        lambda m: char_function(m, math.nan),
    ], ids=["sequence-nan", "sum-nan", "sequence-1+nanj", "sequence-inf",
            "sequence--inf", "sequence-inf+1j", "sequence-inf+nanj",
            "eval_uN-nan", "eval_uN_tilde-nan", "eval_auto-nan",
            "sine_solution-nan", "char_function-nan"])
    def test_non_finite_argument_refused(self, model_exp, call):
        with pytest.raises(LimitError, match="not finite"):
            call(model_exp)

    def test_plain_bessel_sum_overflow(self, model_neg):
        # |Im omega| x_1 = 699: the sum overflows, e^{i omega x} does not
        w = 1 + 699j / float(model_neg.grid.nodes[1])
        with pytest.raises(LimitError, match="plain representation"):
            eval_uN_tilde(model_neg, w, 1)
        with pytest.raises(LimitError, match="plain representation"):
            sine_solution(model_neg, w, 1, "plain")

    def test_finite_or_refused_up_to_the_guard(self, model_neg):
        # |Im omega x| from 0 to the Bessel guard IM_CAP: each value is
        # finite or refused, and no warning escapes (the sum runs in Python
        # arithmetic, where an overflow is inf)
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in (1, 10, 100, model_neg.grid.M):
                x = float(model_neg.grid.nodes[j])
                for t in np.linspace(-IM_CAP, IM_CAP, 71).tolist():
                    w = 1 + 1j * t / x
                    for evaluate in (eval_uN_tilde, eval_uN):
                        try:
                            assert cmath.isfinite(evaluate(model_neg, w, j))
                            outcomes.add("finite")
                        except LimitError:
                            outcomes.add("refused")
        assert outcomes == {"finite", "refused"}

    def test_improved_bessel_sum_overflow(self):
        model = build_model("50", PI, 1998, 25)
        with pytest.raises(LimitError, match="improved representation"):
            eval_uN(model, 1 + (699 / PI) * 1j, model.grid.M)

    def test_sine_of_two_finite_values_refused(self):
        # u(omega, b) and u(-omega, b) are finite, but their difference
        # over 2i omega, |omega| < 1, is not
        model = build_model("-0.01", 700.0, 1998, 25)
        j, w = model.grid.M, -0.8427445258467778 - 0.9807078285006849j
        assert cmath.isfinite(eval_uN_tilde(model, w, j))
        assert cmath.isfinite(eval_uN_tilde(model, -w, j))
        with pytest.raises(LimitError, match="plain representation"):
            sine_solution(model, w, j, "plain")


class TestSmallOmegaImproved:
    """At |omega| < 1 the improved form's 1/omega and 1/omega^2 terms
    cancel; where their rounding bound reaches the returned value it is
    refused.  On exp(x) at x = b the true s is 447.850, and the improved
    form used to return -2.1e26 at omega = 1e-20, -3.0e290 at 1e-152,
    u = -2097152j at 1e-20 and s = 0.0 through char_values at 1e-8."""

    @pytest.mark.parametrize("w", [1e-20, 1e-152])
    def test_sine_solution(self, model_exp, w):
        j = model_exp.grid.M
        with pytest.raises(LimitError, match="no correct digit"):
            sine_solution(model_exp, w, j)
        assert sine_solution(model_exp, w, j, "plain") == pytest.approx(
            447.850, abs=1e-3)

    def test_eval_uN(self, model_exp):
        j = model_exp.grid.M
        with pytest.raises(LimitError, match="no correct digit"):
            eval_uN(model_exp, 1e-20, j)
        # eval_auto takes the plain form there
        assert eval_auto(model_exp, 1e-20, j).real == pytest.approx(
            549.977, abs=1e-3)

    def test_char_values(self, model_exp):
        with pytest.raises(LimitError, match="no correct digit"):
            char_values(model_exp, np.array([1e-8]), "improved")
        with pytest.raises(LimitError, match="omega=1e-08"):
            char_values(model_exp, np.array([0.5, 1e-8, 3.0]), "improved")
        s, _ = char_values(model_exp, np.array([1e-8]), "plain")
        assert s[0] == pytest.approx(447.850, abs=1e-3)

    def test_digits_kept_from_a_small_omega_on(self, model_exp):
        # from 1e-4 on the improved form agrees with the plain one to 1e-6
        j = model_exp.grid.M
        for w in (1e-4, 1e-2, 0.25, 0.99):
            s, _ = char_values(model_exp, np.array([w]), "improved")
            assert s[0] == pytest.approx(
                sine_solution(model_exp, w, j, "plain"), rel=1e-6)
            assert sine_solution(model_exp, w, j) == pytest.approx(s[0], rel=1e-12)


class TestSineSolution:
    def test_zero_potential(self, model_zero):
        for w in (3.3, 11.0):
            for j in (0, 999, 1998):
                x = float(model_zero.grid.nodes[j])
                assert abs(
                    sine_solution(model_zero, w, j) - math.sin(w * x) / w
                ) < 1e-13

    def test_vanishes_at_origin(self, model_exp):
        # below |omega| = 1 too, where the improved form refuses a value
        # with no digit left: every term is real at x = 0
        for w in (4.2, 0.5, 1e-20):
            assert sine_solution(model_exp, w, 0) == 0.0

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

    @pytest.mark.parametrize("w", [1e-300, 1e-160 + 1e-160j])
    def test_improved_not_finite_rejected(self, model_exp, w):
        # omega^2 underflows to 0, or to a subnormal that the terms divide
        # into inf and nan
        with pytest.raises(LimitError):
            sine_solution(model_exp, w, model_exp.grid.M)

    @pytest.mark.parametrize("rep", ["improved", "plain"])
    @pytest.mark.parametrize("c, omegas, tol", [
        (2 + 1.5j, (3.0, 40.0, 2 + 1j), 1e-10),
        (-30.0, (5j, 3j), 1e-6),
    ])
    def test_complex_branch_constant_potential(self, c, omegas, tol, rep):
        # a complex q or omega takes (u(omega) - u(-omega))/(2 i omega);
        # for q = c that is sin(k x)/k with k = sqrt(omega^2 - c)
        model = build_model(np.full(1999, c), PI, 1998, 25)
        j = model.grid.M
        x = float(model.grid.nodes[j])
        for w in omegas:
            k = cmath.sqrt(w * w - c)
            exact = cmath.sin(k * x) / k
            got = sine_solution(model, w, j, representation=rep)
            assert abs(got - exact) <= tol * abs(exact)


class TestCharValues:
    OMEGAS = np.array([0.25, 0.7, 2.23, 8.7, 30.1, 120.3, 459.9])

    @pytest.mark.parametrize("rep", ["improved", "plain"])
    def test_matches_scalar_sine_solution(self, model_exp, rep):
        j = model_exp.grid.M
        got, _ = char_values(model_exp, self.OMEGAS, rep)
        for w, s in zip(self.OMEGAS, got):
            ref = sine_solution(model_exp, float(w), j, representation=rep)
            # s is of size 1/omega away from its zeros
            assert abs(s - ref) <= 1e-14 * max(abs(ref), 1.0 / w)

    @pytest.mark.parametrize("rep", ["improved", "plain"])
    def test_derivative_against_finite_differences(self, model_exp, rep):
        w = self.OMEGAS
        s, ds = char_values(model_exp, w, rep)
        h = 1e-5 * np.maximum(1.0, w)
        f = lambda d: char_values(model_exp, w + d, rep)[0]
        fd = (8.0 * (f(h) - f(-h)) - (f(2 * h) - f(-2 * h))) / (12.0 * h)
        assert np.all(np.abs(ds - fd) <= 1e-7 * np.abs(fd))

    @pytest.mark.parametrize("rep", ["improved", "plain"])
    def test_constant_potential_closed_form(self, model_one, rep):
        # q = 1: s = sin(kb)/k with k = sqrt(omega^2 - 1), and
        # ds/domega = (b cos(kb)/k - sin(kb)/k^2) omega/k
        b = float(model_one.grid.nodes[-1])
        w = np.linspace(2.0, 460.0, 300)
        k = np.sqrt(w * w - 1.0)
        exact = np.sin(k * b) / k
        d_exact = (b * np.cos(k * b) / k - np.sin(k * b) / k**2) * w / k
        s, ds = char_values(model_one, w, rep)
        assert np.all(np.abs(s - exact) <= 1e-10 / w)
        assert np.all(np.abs(ds - d_exact) <= 1e-10 / w)

    @pytest.mark.parametrize("rep", ["improved", "plain"])
    def test_columns_do_not_depend_on_the_batch(self, model_exp, rep):
        # alone, in pairs or all together: the same bits for s and ds
        w = self.OMEGAS
        whole = char_values(model_exp, w, rep)
        for size in (1, 2):
            parts = [char_values(model_exp, w[k : k + size], rep)
                     for k in range(0, w.size, size)]
            for got, ref in zip(map(np.concatenate, zip(*parts)), whole):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("rep", ["improved", "plain"])
    def test_empty_batch_gives_empty_arrays(self, model_exp, rep):
        # the series' omega.max() raised on a zero-size array
        s, ds = char_values(model_exp, [], rep)
        assert s.shape == ds.shape == (0,)
        assert s.dtype == ds.dtype == np.float64

    def test_rejects_complex_potential(self):
        model = build_model(np.full(103, 1 + 1j), PI, 102, 4)
        with pytest.raises(ValueError, match="needs a real potential"):
            char_values(model, np.array([1.0]))

    def test_rejects_nonpositive_omega(self, model_exp):
        with pytest.raises(ValueError):
            char_values(model_exp, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("w", [1e-300, 1e200])
    def test_improved_omega_squared_out_of_range_rejected(self, model_exp, w):
        # omega^2 underflows or overflows, as in eval_uN
        with pytest.raises(LimitError):
            char_values(model_exp, np.array([1.0, w]))

    @pytest.mark.parametrize("batched", [False, True])
    def test_improved_overflowing_terms_rejected(self, model_exp, batched):
        # refused, alone or among finite omegas, with no overflow warning
        # escaping (warnings are errors in this suite)
        w = [1.0, 1.5e-154, 2.0] if batched else [1.5e-154]
        with pytest.raises(LimitError, match="omega=1.5e-154"):
            char_values(model_exp, np.array(w))


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
        eps = epsN_surrogate(model_exp)
        a = error_envelope(model_exp, 5.0 + 1e-12j, j, eps)
        b = error_envelope(model_exp, 5.0, j, eps)
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
        eps = epsN_surrogate(model_exp)
        env = error_envelope(model_exp, 200 + 120j, j, eps)
        assert math.isfinite(env) and env > 0.0
        with pytest.raises(LimitError):
            error_envelope(model_exp, 1 + 300j, model_exp.grid.M, eps)

    def test_complex_omega_at_x_zero_is_zero(self, model_exp):
        # the sinh factor of x = 0 vanishes: exactly 0.0, not 0 * inf
        env = error_envelope(model_exp, 2 + 1j, 0, epsN_surrogate(model_exp))
        assert env == 0.0 and isinstance(env, float)

    def test_complex_omega_positive(self, model_exp):
        env = error_envelope(model_exp, 3 + 2j, model_exp.grid.M,
                             epsN_surrogate(model_exp))
        assert math.isfinite(env) and env > 0.0

    def test_scaled_residual_bounded_by_envelope(self, model_exp):
        # the surrogate (saturated at its noise floor) with a safety
        # factor of 100 dominates the actual deviation from the reference
        j = model_exp.grid.M
        eps = epsN_surrogate(model_exp)
        for w in (100.0, 300.0, 1000.0):
            ref = solution_reference_extended(np.exp, PI, [w])[0]
            r = abs(eval_uN(model_exp, w, j) - ref)
            assert r <= 100.0 * error_envelope(model_exp, w, j, eps)

    def test_zero_omega_rejected(self, model_exp):
        with pytest.raises(ZeroOmegaError):
            error_envelope(model_exp, 0.0, 10, epsN_surrogate(model_exp))

    @pytest.mark.parametrize("w", [1e300, 1e300 + 1j, 1e-200, 1e-200j])
    def test_omega_squared_out_of_range_rejected(self, model_exp, w):
        with pytest.raises(LimitError):
            error_envelope(model_exp, w, 10, epsN_surrogate(model_exp))


#: a real potential on the primary route, one on the f0 + i f1 route (f0 =
#: cos(2x) of q = -4 changes sign) and a complex array
TAIL_BUILDS = {
    "exp": ("exp(x)", 25),
    "minus4": ("-4", 25),
    "complex": (np.full(1999, 1.0 + 2.0j), 25),
}


class TestSurrogateTail:
    """build_model stops at the rows the sums use; the EXTRA_ROWS alpha
    rows that only epsN_surrogate reads are made on its first call, by
    resuming the build, with the bits of an eager build to N + EXTRA_ROWS."""

    @pytest.fixture(scope="class", params=list(TAIL_BUILDS))
    def eager(self, request):
        q, N = TAIL_BUILDS[request.param]
        return q, N, build_model(q, PI, 1998, N + solution.EXTRA_ROWS)

    @staticmethod
    def _forbid_builds(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the tail was built again")

        monkeypatch.setattr(solution, "legendre_coeffs", fail)
        monkeypatch.setattr(formal_powers, "indefinite_integral", fail)

    def test_tail_rows_are_the_eager_rows(self, eager, monkeypatch):
        q, N, big = eager
        model = build_model(q, PI, 1998, N)
        assert (model.powers.k_max, model.beta.n_max, model.alpha.n_max) == (
            N, N, N + 2)
        for got, want in ((model.beta.beta, big.beta.beta[: N + 1]),
                          (model.beta.noise_floor,
                           big.beta.noise_floor[: N + 1]),
                          (model.alpha.alpha, big.alpha.alpha[: N + 3]),
                          (model.alpha.noise_floor,
                           big.alpha.noise_floor[: N + 3])):
            assert np.array_equal(got, want)
        assert not model._tail
        eps = epsN_surrogate(model)
        assert np.array_equal(eps, epsN_surrogate(big.with_truncation(N)))
        tail = list(model._tail)
        rows = slice(N + 3, N + 3 + solution.EXTRA_ROWS)
        assert np.array_equal(tail[0], big.alpha.alpha[rows])
        assert np.array_equal(tail[1], big.alpha.noise_floor[rows])
        # the build state is dropped, and a second call builds nothing
        assert model.powers._rows is None
        assert model.alpha._recurrence is None
        self._forbid_builds(monkeypatch)
        assert np.array_equal(epsN_surrogate(model), eps)
        assert len(model._tail) == 2
        assert all(a is b for a, b in zip(model._tail, tail))

    def test_a_copy_keeps_the_build_state(self, eager):
        # the state is plain arrays, so a model still pickles and copies
        q, N, big = eager
        model = build_model(q, PI, 1998, N)
        for other in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert np.array_equal(epsN_surrogate(other),
                                  epsN_surrogate(big.with_truncation(N)))
        assert not model._tail

    def test_a_view_builds_the_tail_once(self, eager, monkeypatch):
        q, N, big = eager
        model = build_model(q, PI, 1998, N)
        view = model.with_truncation(N - 2)
        eps_view = epsN_surrogate(view)
        assert np.array_equal(
            eps_view, epsN_surrogate(big.with_truncation(N - 2)))
        assert len(model._tail) == 2 and view._tail is model._tail
        self._forbid_builds(monkeypatch)
        assert np.array_equal(epsN_surrogate(model),
                              epsN_surrogate(big.with_truncation(N)))
        assert np.array_equal(epsN_surrogate(view), eps_view)


@pytest.fixture(scope="module")
def bit_models():
    """A real potential, and a complex tabulated one."""
    x = np.asarray(make_grid(PI, 600).nodes, dtype=float)
    return {
        "real": build_model("exp(x)", PI, 600, 20),
        "complex": build_model(np.exp(x) * (1.0 + 0.5j) - 2.0j, PI, 600, 20),
    }


def seeded_points(seed=11, count=150):
    """(omega, node) pairs: real and complex omega from 1e-3 to 2000, the
    sign of each part at random, at nodes 0..600."""
    rng = np.random.default_rng(seed)
    points = []
    for k in range(count):
        w = float(10.0 ** rng.uniform(-3.0, math.log10(2000.0)))
        w *= rng.choice([-1.0, 1.0])
        if k % 2:
            w = complex(w, rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 20.0))
        points.append((w, int(rng.integers(0, 601))))
    return points


def rounding_bound(model, w, j, representation):
    """2 (n + 2) eps (|k/d| sum_n |c_n j_n| + the sizes of the assembled
    terms) for u_N at (w, j), n the top order: two sums of the same Bessel
    terms in different orders, and the same assembly, meet within it (see
    ``nsbf.solution._assemble`` for a, p, k and d)."""
    improved = representation == "improved"
    table = model._alpha_c if improved else model._beta_c
    n = model.N + 2 if improved else model.N
    x = float(model.grid.nodes[j])
    z = w * x
    if isinstance(z, complex) and z.imag == 0.0:
        z = z.real
    terms = np.abs(table[j, : n + 1] * solution.spherical_j_sequence(n, z))
    e, em = abs(cmath.exp(1j * w * x)), abs(cmath.exp(-1j * w * x))
    if improved:
        Q, q = complex(model.Q[j]), complex(model.q[j])
        d = abs(w) ** 2
        a = abs(1.0 + Q / (2j * w) + (q / 4.0 - Q * Q / 8.0) / (w * w))
        sizes = e * a + abs(model.q0) * em / (4.0 * d) + 2.0 * terms.sum() / d
        k_d = 2.0 / d
    else:
        sizes = e + 2.0 * terms.sum()
        k_d = 2.0
    return 2 * (n + 2) * np.finfo(float).eps * (k_d * terms.sum() + sizes)


def sine_parts(model, w, j, representation, evaluate):
    """s = Im u/w, or (u(w) - u(-w))/(2i w), from ``evaluate``, and its
    rounding bound (``rounding_bound`` through the same combination)."""
    if not model.is_complex and not isinstance(w, complex):
        return (evaluate(model, w, j, representation).imag / w,
                rounding_bound(model, w, j, representation) / abs(w))
    return ((evaluate(model, w, j, representation)
             - evaluate(model, -w, j, representation)) / (2j * w),
            (rounding_bound(model, w, j, representation)
             + rounding_bound(model, -w, j, representation)) / (2 * abs(w)))


class TestScalarRounding:
    """The scalar kernel sums the Bessel series while it recurs, so it
    meets the straightforward evaluation (``np.dot`` over the stored
    sequence) within the rounding bound of the sum, not bit for bit."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_evaluators_meet_the_straightforward_series(self, bit_models, kind):
        model = bit_models[kind]
        eps = epsN_surrogate(model)
        for w, j in seeded_points():
            small = abs(w) < 1.0
            for rep, evaluate in (("plain", eval_uN_tilde), ("improved", eval_uN)):
                ref = series_reference(model, w, j, rep)
                bound = rounding_bound(model, w, j, rep)
                assert abs(evaluate(model, w, j) - ref) <= bound, (w, j, rep)
                if small == (rep == "plain"):
                    assert abs(eval_auto(model, w, j) - ref) <= bound, (w, j)
                try:
                    got = sine_solution(model, w, j, rep)
                except LimitError:
                    # the improved form refuses where its 1/omega^2 terms
                    # leave no digit of s (TestSmallOmegaImproved)
                    assert rep == "improved" and small, (w, j)
                    continue
                s, s_bound = sine_parts(model, w, j, rep, series_reference)
                assert abs(got - s) <= s_bound, (w, j, rep)
            # the envelope takes no Bessel value: still the same bits
            assert error_envelope(model, w, j, eps) == envelope_reference(
                model, w, j, eps), (w, j)

    def test_truncated_view_reads_the_same_nodes(self, bit_models):
        model = bit_models["complex"]
        view = model.with_truncation(7)
        assert view._Q is model._Q
        for w, j in seeded_points(seed=5, count=20):
            assert abs(eval_uN(view, w, j)
                       - series_reference(view, w, j, "improved")
                       ) <= rounding_bound(view, w, j, "improved"), (w, j)


class TestNumpyScalarOmega:
    """A numpy scalar omega is evaluated as the Python number of its value;
    a complex64 used to run in single precision and drop its imaginary
    part in the Bessel values, with a ComplexWarning."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_model("exp(x)", PI, 600, 10)

    @pytest.mark.parametrize("w", [np.complex64(3 + 2j), np.float32(5.0),
                                   np.float64(0.5), np.complex128(2 - 1j)],
                             ids=["complex64", "float32", "float64", "complex128"])
    def test_same_value_as_the_python_number(self, model, w):
        value = complex(w) if np.iscomplexobj(w) else float(w)
        eps = epsN_surrogate(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [eval_auto(model, w, 300), eval_uN(model, w, 300),
                   eval_uN_tilde(model, w, 300), sine_solution(model, w, 300),
                   error_envelope(model, w, 300, eps)]
        assert got == [eval_auto(model, value, 300), eval_uN(model, value, 300),
                       eval_uN_tilde(model, value, 300),
                       sine_solution(model, value, 300),
                       error_envelope(model, value, 300, eps)]

    @pytest.mark.parametrize("w", [3 + 0j, np.complex64(3 + 0j)],
                             ids=["complex", "complex64"])
    def test_sine_solution_at_a_real_complex_omega(self, model, w):
        # a complex omega with a zero imaginary part used to raise TypeError
        # from float(omega) on a real potential
        for rep in ("improved", "plain"):
            expected = sine_solution(model, 3.0, 300, rep)
            assert sine_solution(model, w, 300, rep) == expected

    def test_complex64_value(self, model):
        u = eval_auto(model, np.complex64(3 + 2j), 300)
        assert u == pytest.approx(-0.4809 - 0.5322j, abs=1e-4)
        env = error_envelope(model, np.complex64(3 + 2j), 300, epsN_surrogate(model))
        assert env == pytest.approx(7.27e-7, rel=1e-3)
