import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from nsbf import (
    LimitError,
    accuracy_indicators,
    build_model,
    coefficients,
    indefinite_integral,
    make_grid,
    sample,
    solve_homogeneous,
)
from nsbf.coefficients import (
    NOISE_FLOOR_EPS_FACTOR,
    ORDER_CAP,
    beta_coeffs,
    build_alpha_table,
    legendre_coeffs,
)
from nsbf.formal_powers import formal_powers
from nsbf.oracle import propagate

from crosschecks import (
    _legendre_sum,
    alpha_direct,
    dual_route_deviation,
    inverse_relation_deviation,
    moment_table,
)

PI = math.pi


@pytest.fixture(scope="module")
def exp_tables():
    grid = make_grid(PI, 1998)
    q = sample(grid, np.exp)
    Q = indefinite_integral(grid, q)
    f0 = solve_homogeneous(grid, q, 1.0)
    phi = formal_powers(grid, f0, 33)
    leg = legendre_coeffs(40)
    beta = beta_coeffs(phi, legendre_coeffs(30))
    moments = moment_table(q, Q, phi, 28)
    alpha = build_alpha_table(q, Q, phi, beta, 32)
    return grid, q, Q, phi, leg, beta, moments, alpha


@pytest.fixture(scope="module")
def zero_tables():
    grid = make_grid(PI, 1998)
    q = np.zeros(grid.M + 1, dtype=np.longdouble)
    Q = indefinite_integral(grid, q)
    f0 = solve_homogeneous(grid, q, 1.0)
    phi = formal_powers(grid, f0, 14)
    leg = legendre_coeffs(14)
    beta = beta_coeffs(phi, legendre_coeffs(12))
    moments = moment_table(q, Q, phi, 12)
    alpha = build_alpha_table(q, Q, phi, beta, 12)
    return grid, q, Q, phi, leg, beta, moments, alpha


class TestLegendreCoeffs:
    def test_low_orders(self):
        leg = legendre_coeffs(3)
        assert leg[0, 0] == 1.0
        assert leg[2, 0] == pytest.approx(-0.5)
        assert leg[2, 2] == pytest.approx(1.5)
        assert leg[2, 1] == 0.0

    def test_row_sums_are_one(self):
        leg = legendre_coeffs(20)
        s = float(np.sum(leg[10]))
        assert abs(s - 1.0) < 1e-10

    def test_parity_zeros(self):
        leg = legendre_coeffs(9)
        for n in range(10):
            for k in range(n + 1):
                if (n - k) % 2 == 1:
                    assert leg[n, k] == 0.0

    def test_bonnet_consistency(self):
        leg = legendre_coeffs(15)
        for n in range(1, 15):
            lhs = (n + 1) * leg[n + 1]
            rhs = np.zeros_like(lhs)
            rhs[1:] = (2 * n + 1) * leg[n, :-1]
            rhs -= n * leg[n - 1]
            assert float(np.max(np.abs(lhs - rhs))) < 1e-14 * float(
                np.max(np.abs(lhs))
            )

    def test_order_cap(self):
        with pytest.raises(LimitError):
            legendre_coeffs(ORDER_CAP + 1)

    def test_shared_table_is_read_only(self):
        leg = legendre_coeffs(10)
        with pytest.raises(ValueError):
            leg[2, 0] = 0.0
        # a larger order rebuilds the shared table; smaller ones read its
        # corner with the same entries
        assert np.array_equal(legendre_coeffs(60)[:11, :11], leg)
        assert np.array_equal(legendre_coeffs(10), leg)


class TestBetaCoeffs:
    def test_zero_potential_all_zero(self, zero_tables):
        *_, beta, _, _ = zero_tables
        assert float(np.max(np.abs(beta.beta))) <= 1e-12

    def test_constant_potential_first_row(self):
        grid = make_grid(PI, 1998)
        q = sample(grid, lambda x: 1.0)
        f0 = solve_homogeneous(grid, q, 1.0)
        phi = formal_powers(grid, f0, 4)
        beta = beta_coeffs(phi, legendre_coeffs(4))
        xs = np.asarray(grid.nodes, dtype=float)
        mask = xs >= 0.01 * PI
        target = (np.cosh(xs) - 1.0) / 2.0
        dev = np.abs(np.asarray(beta.beta[0], float) - target)[mask]
        assert float(np.max(dev)) < 1e-11

    def test_exponential_first_row_against_reference(self, exp_tables):
        grid, *_ = exp_tables
        beta = exp_tables[5]
        y, _ = propagate(np.exp, PI, [0.0], np.array([1.0, 0.0]))
        phi0_ref = float(y[0, 0].real)
        expected = (phi0_ref - 1.0) / 2.0
        assert abs(float(beta.beta[0, -1]) - expected) < 1e-9 * abs(expected)

    def test_real_potential_gives_real_table(self, exp_tables):
        beta = exp_tables[5]
        assert not np.iscomplexobj(beta.beta)

    def test_cancellation_flags_mark_deep_cancellation(self, exp_tables):
        grid = exp_tables[0]
        beta = exp_tables[5]
        # low rows are fully resolved from b/100 on, high rows cancel by
        # many orders
        xs = np.asarray(grid.nodes, dtype=float)
        assert not beta.flags[:5, xs >= 0.01 * PI].any()
        assert beta.flags[20:, grid.M].any()


#: builds whose beta table is checked against the compensated sum: the
#: primary route, the f0 + i f1 route (f0 changes sign for q = -3), a
#: complex tabulated potential, one whose complex f0 nearly vanishes at
#: pi/2 (the f0 + i f1 route in complex128, summed in clongdouble), Paine's
#: steep one and the top order N = 60
BETA_BUILDS = {
    "exp": ("exp(x)", 25),
    "minus3": ("-3", 25),
    "complex_tabulated": (np.full(1999, 2.0 + 1.5j), 25),
    "complex_fallback": (np.full(1999, -1.0 + 1e-4j), 25),
    "paine": ("1/(x+0.1)^2", 25),
    "exp_N60": ("exp(x)", 60),
}


@pytest.fixture(scope="module", params=list(BETA_BUILDS))
def beta_build(request):
    q, N = BETA_BUILDS[request.param]
    model = build_model(q, PI, 1998, N)
    assert model.powers.used_nonvanishing == (
        request.param in ("minus3", "complex_fallback")
    )
    leg = legendre_coeffs(model.beta.n_max)
    dev = model.powers.dev_ratio[: model.beta.n_max + 1, 1:]
    return model.beta, leg, dev


@pytest.mark.parametrize(
    "name", ["exp", "paine", "minus3", "complex_tabulated", "complex_fallback"])
def test_magnitudes_equal_the_casting_abs(name, monkeypatch):
    # a real table's float64 magnitudes are rounded before the sign is
    # dropped, not by the ufunc's casting loop: the cancellation flags, both
    # noise floors and alpha, which the noise-tail cut reads them for, keep
    # every bit
    q, N = BETA_BUILDS[name]
    model = build_model(q, PI, 1998, N)
    monkeypatch.setattr(
        coefficients, "_abs_into",
        lambda x, out: np.abs(x, out=out, casting="unsafe"))
    casting = build_model(q, PI, 1998, N)
    assert model.beta.flags.any()
    for got, want in ((model.beta.flags, casting.beta.flags),
                      (model.beta.noise_floor, casting.beta.noise_floor),
                      (model.alpha.noise_floor, casting.alpha.noise_floor),
                      (model.alpha.alpha, casting.alpha.alpha)):
        assert np.array_equal(got, want)


def _largest_summand(leg, dev, n):
    ks = slice(n % 2, n + 1, 2)
    return np.max(np.abs(leg[n, ks, None] * dev[ks]), axis=0)


def _exact(v):
    """A longdouble as an mpmath number, without rounding."""
    m, e = np.frexp(v)
    return mpmath.ldexp(int(np.ldexp(m, 64)), int(e) - 64)


class TestBetaSum:
    """The plain product against independent compensated and exact sums.

    A plain sum of n//2 + 1 terms is off by at most about (n//2 + 1)^2 eps
    of its largest term (Higham 1993), far below the noise floor.
    """

    def test_rows_match_compensated_sum(self, beta_build):
        beta, leg, dev = beta_build
        eps = float(np.finfo(dev.real.dtype).eps)
        for n in range(beta.n_max + 1):
            total, flags = _legendre_sum(leg, dev, n)
            w = 0.5 * (2 * n + 1)
            peak = _largest_summand(leg, dev, n)
            ref = w * total
            ref[np.abs(ref) < NOISE_FLOOR_EPS_FACTOR * eps * w * peak] = 0.0
            got = beta.beta[n, 1:]
            assert np.array_equal(got == 0, ref == 0), n
            assert np.array_equal(beta.flags[n, 1:], flags), n
            tol = (n // 2 + 1) ** 2 * eps * w * peak
            assert np.all(np.abs(got - ref) <= tol), n

    @pytest.mark.parametrize("j", [1, 37, 500, 1998])
    def test_columns_match_exact_sum(self, beta_build, j):
        beta, leg, dev = beta_build
        eps = float(np.finfo(dev.real.dtype).eps)
        col = dev[:, j - 1]
        with mpmath.workprec(4000):
            for n in range(beta.n_max + 1):
                w = 0.5 * (2 * n + 1)
                peak = float(_largest_summand(leg, dev[:, j - 1 : j], n)[0])
                exact = [
                    w * mpmath.fsum(_exact(leg[n, k]) * _exact(part(col[k]))
                                    for k in range(n % 2, n + 1, 2))
                    for part in (np.real, np.imag)
                ]
                got = beta.beta[n, j]
                tol = (n // 2 + 1) ** 2 * eps * w * peak
                if got == 0:
                    tol += NOISE_FLOOR_EPS_FACTOR * eps * w * peak
                for g, e in zip((np.real(got), np.imag(got)), exact):
                    assert abs(float(_exact(g) - e)) <= tol, n

    def test_rows_are_sums_over_ascending_k(self, beta_build):
        # each row is l[n][k] dev_k summed over ascending k in the dtype of
        # their product, rounded to the dtype of the formal powers, then
        # scaled and cut at its floor
        beta, leg, dev = beta_build
        for n in range(beta.n_max + 1):
            acc = np.zeros(dev.shape[1], dtype=dev.dtype)
            for k in range(n % 2, n + 1, 2):
                acc = acc + leg[n, k] * dev[k]
            acc = acc.astype(dev.dtype) * (0.5 * (2 * n + 1))
            acc[np.abs(acc) < beta.noise_floor[n, 1:]] = 0.0
            assert np.array_equal(beta.beta[n, 1:], acc), n

    def test_peak_memory_stays_near_outputs(self):
        # the largest build_sweep cell; a stacked full-size temporary on
        # top of the outputs would exceed the bound
        grid = make_grid(PI, 2952)
        f0 = solve_homogeneous(grid, sample(grid, np.exp), 1.0)
        phi = formal_powers(grid, f0, 42)
        leg = legendre_coeffs(42)
        tracemalloc.start()
        try:
            out = beta_coeffs(phi, leg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = out.beta.nbytes + out.flags.nbytes + out.noise_floor.nbytes
        assert peak <= 1.75 * outputs


class TestMoments:
    def test_zero_potential(self, zero_tables):
        moments = zero_tables[6]
        assert float(np.max(np.abs(moments.k))) <= 1e-12

    def test_first_moment_closed_form(self, exp_tables):
        grid = exp_tables[0]
        moments = exp_tables[6]
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
        moments = exp_tables[6]
        alpha = exp_tables[7]
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

    # rows 0..3 of the alpha table are the closed-form seeds
    def test_exponential_spot_value(self, exp_tables):
        grid, *_, moments, alpha = exp_tables
        rows = alpha.alpha
        j = grid.nearest_index(1.0)
        assert float(rows[0, j]) == pytest.approx(
            float(moments.k[0, j]) / 2.0, abs=1e-16
        )

    def test_seed_matches_direct(self, exp_tables):
        grid, q, Q, phi, leg, _, moments, alpha = exp_tables
        rows = alpha.alpha
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
        eps1, eps2 = accuracy_indicators(q, Q, alpha, 10)
        assert float(np.max(eps1)) <= 1e-12
        assert float(np.max(eps2)) <= 1e-12

    def test_truncation_past_the_table_refused(self, exp_tables):
        grid, q, Q, *_ = exp_tables
        alpha = exp_tables[7]
        with pytest.raises(ValueError, match="exceeds alpha table"):
            accuracy_indicators(q, Q, alpha, alpha.n_max + 1)

    def test_convergence_with_truncation(self, exp_tables):
        grid, q, Q, *_ = exp_tables
        alpha = exp_tables[7]
        e1_5, e2_5 = accuracy_indicators(q, Q, alpha, 5)
        e1_25, e2_25 = accuracy_indicators(q, Q, alpha, 25)
        assert float(e1_5[-1]) >= 10.0 * float(e1_25[-1])
        assert float(e2_5[-1]) >= 10.0 * float(e2_25[-1])

    def test_antidiagonal_closed_form_exabout(self, exp_tables):
        # for q = e^x the antidiagonal kernel value reduces to e^x/8
        grid, q, Q, *_ = exp_tables
        alpha = exp_tables[7]
        j = grid.M
        x = float(grid.nodes[j])
        alt = sum(
            (-1) ** n * float(alpha.alpha[n, j]) for n in range(26)
        )
        assert abs(alt / x - math.exp(x) / 8.0) < 1e-3
        _, eps2 = accuracy_indicators(q, Q, alpha, 25)
        assert abs(alt / x - math.exp(x) / 8.0) == pytest.approx(
            float(eps2[j]), rel=1e-6
        )
