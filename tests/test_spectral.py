import math

import numpy as np
import pytest

import nsbf.spectral as spectral
from nsbf import (
    ConfigError,
    EigProblem,
    RangeExhaustedError,
    UnsupportedIntervalError,
    ZeroOmegaError,
    asymptotic_eigenvalue,
    build_model,
    char_function,
    find_eigenvalues,
)

PI = math.pi


class TestCharFunction:
    def test_zero_potential(self, model_zero):
        for w in (0.7, 2.0, 9.5):
            assert char_function(model_zero, w) == pytest.approx(
                math.sin(w * PI) / w, abs=1e-13
            )

    def test_constant_potential(self, model_one):
        for w in (1.5, 4.0, 30.0):
            wp = math.sqrt(w * w - 1.0)
            assert char_function(model_one, w) == pytest.approx(
                math.sin(wp * PI) / wp, abs=1e-11
            )

    def test_first_eigenvalue_bracket(self, model_exp):
        s_lo = char_function(model_exp, 2.2)
        s_hi = char_function(model_exp, 2.3)
        assert (s_lo < 0) != (s_hi < 0)

    def test_zero_omega(self, model_exp):
        with pytest.raises(ZeroOmegaError):
            char_function(model_exp, 0.0)


class TestFindEigenvalues:
    def test_zero_potential_squares(self, model_zero):
        res = find_eigenvalues(EigProblem(model_zero), 10)
        for r in res:
            assert abs(r.lam - r.index**2) <= 1e-12
        assert [r.index for r in res] == list(range(1, 11))

    def test_constant_potential(self, model_one):
        res = find_eigenvalues(EigProblem(model_one), 20)
        for r in res:
            assert abs(r.lam - (1.0 + r.index**2)) <= 1e-10

    def test_results_ordered_with_small_residuals(self, model_exp):
        res = find_eigenvalues(EigProblem(model_exp), 12)
        lams = [r.lam for r in res]
        assert lams == sorted(lams)
        for r in res:
            assert r.residual <= 1e-10
            assert r.bracket_width <= 1e-13 * max(1.0, r.omega) * 1.01

    def test_interlacing_with_free_eigenvalues(self, model_exp):
        # q = e^x > 0 shifts every Dirichlet eigenvalue above n^2
        res = find_eigenvalues(EigProblem(model_exp), 12)
        for r in res:
            assert r.lam > r.index**2

    def test_explicit_range_exhaustion(self, model_zero):
        problem = EigProblem(model_zero, omega_lo=0.5, omega_hi=3.5)
        with pytest.raises(RangeExhaustedError):
            find_eigenvalues(problem, 10)

    def test_explicit_range_scanned_in_bounded_windows(
        self, model_exp, monkeypatch
    ):
        # the batch size depends on the count, not on how far omega_hi is
        batched, sizes = spectral.char_values, []

        def recording(model, omegas, *args, **kwargs):
            sizes.append(len(omegas))
            return batched(model, omegas, *args, **kwargs)

        monkeypatch.setattr(spectral, "char_values", recording)
        for omega_hi in (None, 1e3, 1e4):
            sizes.clear()
            find_eigenvalues(EigProblem(model_exp, omega_hi=omega_hi), 3)
            assert max(sizes) == 21

    def test_count_validation(self, model_zero):
        with pytest.raises(ValueError):
            find_eigenvalues(EigProblem(model_zero), 0)


SOLVER_POTENTIALS = ("exp(x)", "1/(x+0.1)^2", "-0.9")


@pytest.fixture(scope="module")
def solver_models(model_exp):
    return {
        "exp(x)": model_exp,
        "1/(x+0.1)^2": build_model("1/(x+0.1)^2", PI, 1998, 25),
        "-0.9": build_model("-0.9", PI, 1998, 25),
    }


def scalar_bisection_root(model, rep, lo, hi):
    """Bisect char_function on [lo, hi] until the midpoint is a float end."""
    s_lo = char_function(model, lo, rep)
    assert (s_lo < 0) != (char_function(model, hi, rep) < 0)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        s_mid = char_function(model, mid, rep)
        if s_mid == 0.0:
            return mid
        if (s_mid < 0) == (s_lo < 0):
            lo, s_lo = mid, s_mid
        else:
            hi = mid


class TestBatchedSolver:
    @pytest.mark.parametrize("rep", ["improved", "plain"])
    @pytest.mark.parametrize("trunc", [15, 25])
    @pytest.mark.parametrize("potential", SOLVER_POTENTIALS)
    def test_agrees_with_scalar_bisection(
        self, solver_models, monkeypatch, potential, trunc, rep
    ):
        model = solver_models[potential].with_truncation(trunc)
        evaluated = []
        batched = spectral.char_values

        def counting(model, omegas, *args, **kwargs):
            evaluated.append(len(omegas))
            return batched(model, omegas, *args, **kwargs)

        monkeypatch.setattr(spectral, "char_values", counting)
        res = find_eigenvalues(EigProblem(model, representation=rep), 460)
        assert [r.index for r in res] == list(range(1, 461))
        assert sum(evaluated) <= 14 * 460
        for r in res:
            assert r.bracket_width <= 1e-13 * max(1.0, r.omega) * 1.01
        for r in res[::23]:
            w = scalar_bisection_root(
                model, rep, r.omega - 0.05, r.omega + 0.05
            )
            assert abs(r.lam - w * w) <= 1e-12 * w * w


class TestEigProblemValidation:
    def test_positive_range(self, model_zero):
        with pytest.raises(ConfigError):
            EigProblem(model_zero, omega_lo=-1.0)
        with pytest.raises(ConfigError):
            EigProblem(model_zero, omega_lo=2.0, omega_hi=1.0)

    def test_complex_potential_rejected(self):
        model = build_model(
            np.full(103, 1.0 + 0.2j), PI, 102, 4
        )
        with pytest.raises(ConfigError):
            EigProblem(model)


class TestAsymptoticEigenvalue:
    def test_headline_index(self):
        v = asymptotic_eigenvalue(460, math.e**PI - 1.0, PI)
        assert v == pytest.approx(211607.047660, abs=5e-6)

    def test_free_case(self):
        assert asymptotic_eigenvalue(7, 0.0, PI) == 49.0

    def test_low_index_hint(self):
        # direct evaluation: (1 + (e^pi - 1)/(2 pi))^2; a scan-range hint
        # only, far from the true first eigenvalue 4.8967
        v = asymptotic_eigenvalue(1, math.e**PI - 1.0, PI)
        expected = (1.0 + (math.e**PI - 1.0) / (2 * PI)) ** 2
        assert v == pytest.approx(expected, rel=1e-15)
        assert v == pytest.approx(20.4648, abs=1e-4)

    def test_interval_restriction(self):
        with pytest.raises(UnsupportedIntervalError):
            asymptotic_eigenvalue(3, 1.0, 2.0)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            asymptotic_eigenvalue(0, 1.0, PI)
