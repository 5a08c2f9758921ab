import math

import numpy as np
import pytest

import nsbf.spectral as spectral
from nsbf import (
    ConfigError,
    EigProblem,
    LimitError,
    RangeExhaustedError,
    ZeroOmegaError,
    asymptotic_eigenvalue,
    build_model,
    char_function,
    char_values,
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

    def test_omega_squared_underflow_refused(self, model_exp):
        # omega^2 underflows to 0: the improved form is refused, not
        # divided by zero
        with pytest.raises(LimitError):
            char_function(model_exp, 1e-300)


class TestFindEigenvalues:
    def test_zero_potential_squares(self, model_zero):
        res = find_eigenvalues(EigProblem(model_zero), 10)
        for r in res:
            assert abs(r.lam - r.index**2) <= 1e-12
        assert [r.index for r in res] == list(range(1, 11))

    @pytest.mark.parametrize("rep", ["improved", "plain"])
    def test_zero_potential_roots_on_scan_points(self, model_zero, rep):
        # every omega_n = n is the scan point 4n - 1 on [0, pi]: the sign of
        # s there puts the root in the cell on one side or the other, and
        # its seed is clipped into that cell
        res = find_eigenvalues(EigProblem(model_zero, representation=rep),
                               460)
        lam = np.array([r.lam for r in res])
        n2 = np.arange(1.0, 461.0) ** 2
        assert np.all(np.abs(lam - n2) <= 2e-13 * n2)

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
            assert r.bracket_width <= 1e-13 * max(1.0, r.omega)

    def test_interlacing_with_free_eigenvalues(self, model_exp):
        # q = e^x > 0 shifts every Dirichlet eigenvalue above n^2
        res = find_eigenvalues(EigProblem(model_exp), 12)
        for r in res:
            assert r.lam > r.index**2

    def test_explicit_range_exhaustion(self, model_zero, monkeypatch):
        # a characteristic function without a sign change scans to the end
        def no_sign_change(model, omegas, rep):
            return np.ones(len(omegas)), np.zeros(len(omegas))

        monkeypatch.setattr(spectral, "char_values", no_sign_change)
        with pytest.raises(RangeExhaustedError, match="found 0 of 10"):
            find_eigenvalues(EigProblem(model_zero), 10)

    def test_exact_zero_at_a_scan_point_is_one_root(
        self, model_zero, monkeypatch
    ):
        # s = (w - c)(c2 - w) is negative below the scan point c, exactly 0
        # there and positive up to c2: the roots are c and c2, c once
        h = EigProblem(model_zero).h_scan
        c = h + h * 2.0
        c2 = c + 2.5 * h

        def two_roots(model, omegas, rep):
            return (omegas - c) * (c2 - omegas), c + c2 - 2.0 * omegas

        monkeypatch.setattr(spectral, "char_values", two_roots)
        res = find_eigenvalues(EigProblem(model_zero), 2)
        assert res[0].omega == c
        assert res[1].omega == pytest.approx(c2, rel=1e-13)

    def test_short_last_window_borrows_its_stencil(
        self, model_zero, monkeypatch
    ):
        # windows of 8 points (7 cells of h = 1/4) from h leave two points,
        # [30, 30.25], to the last window before the range ends at h + 30.
        # The seed's stencil takes the previous window's last three points,
        # so the seed of s = w - 30.1, which any stencil reproduces, is its
        # root
        monkeypatch.setattr(spectral, "SCAN_WINDOW", 8)
        root = 30.1
        refine, scans, seeds = spectral._refine, [], []

        def linear(model, omegas, rep):
            scans.append(omegas)
            return omegas - root, np.ones(len(omegas))

        def recording(problem, omega, *args):
            seeds.append((scans[-1], omega.copy()))
            return refine(problem, omega, *args)

        monkeypatch.setattr(spectral, "char_values", linear)
        monkeypatch.setattr(spectral, "_refine", recording)
        res = find_eigenvalues(EigProblem(model_zero), 1)
        [(window, seed)] = seeds
        assert window.tolist() == [30.0, 30.25]
        assert seed[0] == pytest.approx(root, abs=1e-12)
        assert res[0].omega == pytest.approx(root, rel=1e-13)

    def test_explicit_range_scanned_in_bounded_windows(
        self, model_exp, monkeypatch
    ):
        # no batch exceeds the window cap, whatever the count: a single
        # window of 10,000 roots would hold 40,009 points
        batched, sizes = spectral.char_values, []

        def recording(model, omegas, *args, **kwargs):
            sizes.append(len(omegas))
            return batched(model, omegas, *args, **kwargs)

        monkeypatch.setattr(spectral, "char_values", recording)
        res = find_eigenvalues(EigProblem(model_exp), 10_000)
        assert [r.index for r in res] == list(range(1, 10_001))
        # no root lost or counted twice where windows meet: the spacing of
        # omega_n tends to pi/b = 1
        spacing = np.diff([r.omega for r in res])
        assert 0.5 < spacing.min() and spacing.max() < 1.5
        assert max(sizes) == spectral.SCAN_WINDOW
        sizes.clear()
        find_eigenvalues(EigProblem(model_exp), 3)
        assert max(sizes) == 21
        assert sizes.count(21) == 1

    def test_count_validation(self, model_zero):
        with pytest.raises(ValueError):
            find_eigenvalues(EigProblem(model_zero), 0)

    @pytest.mark.parametrize("rep", ["improved", "plain"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_roots_beyond_the_first_window(
        self, model_twenty, monkeypatch, count, rep
    ):
        # q = 20: omega_1 = sqrt(21) = 4.58 lies beyond the first window,
        # [0.25, 3.25] (13 points) for count 1, whose empty window is not
        # refined; for count 3 the first window, [0.25, 5.25] (21 points),
        # holds two roots, refined before the second window, [5.25, 10.25]
        # (21 points), is scanned for the third.  A refine batch holds at
        # most three points per root of its window.
        batched, sizes = spectral.char_values, []

        def recording(model, omegas, *args, **kwargs):
            sizes.append(len(omegas))
            return batched(model, omegas, *args, **kwargs)

        monkeypatch.setattr(spectral, "char_values", recording)
        res = find_eigenvalues(EigProblem(model_twenty, representation=rep),
                               count)
        scans = [k for k, n in enumerate(sizes) if n > 6]
        if count == 1:
            assert scans == [0, 1] and sizes[:2] == [13, 21]
            assert max(sizes[2:]) <= 3
        else:
            assert len(scans) == 2 and sizes[0] == sizes[scans[1]] == 21
            assert max(sizes[1 : scans[1]]) <= 6
            assert max(sizes[scans[1] + 1 :]) <= 3
        assert [r.index for r in res] == list(range(1, count + 1))
        for r in res:
            exact = r.index**2 + 20.0
            assert abs(r.lam - exact) <= 1e-8 * exact


@pytest.fixture(scope="module")
def model_twenty():
    return build_model("20", PI, 1998, 25)


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
        assert sum(evaluated) <= 9 * 460
        for r in res:
            assert r.bracket_width <= 1e-13 * max(1.0, r.omega)
        for r in res[::23]:
            w = scalar_bisection_root(
                model, rep, r.omega - 0.05, r.omega + 0.05
            )
            assert abs(r.lam - w * w) <= 1e-12 * w * w


    @pytest.mark.parametrize("rep", ["improved", "plain"])
    @pytest.mark.parametrize("potential", SOLVER_POTENTIALS)
    def test_few_calls_and_certified_brackets(
        self, solver_models, monkeypatch, potential, rep
    ):
        # the scan and two refine passes, the second certifying every root:
        # at most 8.1 values of s per root (4 (count + 2) + 1 scan points,
        # then 1 + 3 per root); each root's reported bracket straddles a
        # sign change of s, and its width is within the tolerance although
        # each end omega -+ half is rounded.
        model = solver_models[potential]
        batched, calls = spectral.char_values, []

        def counting(model, omegas, *args, **kwargs):
            calls.append(len(omegas))
            return batched(model, omegas, *args, **kwargs)

        monkeypatch.setattr(spectral, "char_values", counting)
        res = find_eigenvalues(EigProblem(model, representation=rep), 240)
        assert [r.index for r in res] == list(range(1, 241))
        assert len(calls) == 3
        assert sum(calls) <= 8.1 * 240
        omega = np.array([r.omega for r in res])
        width = np.array([r.bracket_width for r in res])
        tol = spectral.BRACKET_TOL * np.maximum(1.0, omega)
        assert np.all(width <= tol)
        s_a, s_c = np.split(
            batched(model, np.concatenate([omega - width / 2,
                                           omega + width / 2]), rep)[0], 2
        )
        assert np.all(np.sign(s_a) * np.sign(s_c) <= 0)


    @pytest.mark.parametrize("rep", ["improved", "plain"])
    @pytest.mark.parametrize("trunc", [15, 25])
    @pytest.mark.parametrize("potential", SOLVER_POTENTIALS)
    def test_residual_is_s_at_omega(self, solver_models, potential, trunc,
                                    rep):
        # a root certified at its Newton point takes |s| there from the
        # same batch, and a column does not depend on its batch
        model = solver_models[potential].with_truncation(trunc)
        res = find_eigenvalues(EigProblem(model, representation=rep), 460)
        for r in res:
            s = spectral.char_values(model, np.array([r.omega]), rep)[0]
            assert r.residual == abs(s[0])

    @pytest.mark.parametrize("rep", ["improved", "plain"])
    def test_failed_certificate_pair(self, model_exp, monkeypatch, rep):
        # the first certificate pair of root 7 shows no sign change: the
        # end beyond the Newton point w, away from the root, reads with its
        # sign reversed.  The pair only moves the bracket in, to half the
        # tolerance between w and the other end, where the root closes.
        problem = EigProblem(model_exp, representation=rep)
        target = find_eigenvalues(problem, 12)[6].omega
        batched, calls, flipped = spectral.char_values, [], []

        def one_pair_wrong(model, omegas, *args, **kwargs):
            calls.append(len(omegas))
            s, ds = batched(model, omegas, *args, **kwargs)
            near = np.flatnonzero(np.abs(omegas - target) < 1e-6)
            if len(calls) > 1 and near.size == 3 and not flipped:
                a, w, c = near[np.argsort(omegas[near])]
                end = c if np.sign(s[c]) == np.sign(s[w]) else a
                s[end] = -s[end]
                flipped.append(omegas[end])
            return s, ds

        monkeypatch.setattr(spectral, "char_values", one_pair_wrong)
        res = find_eigenvalues(problem, 12)
        assert flipped and len(calls) <= 6
        r = res[6]
        assert 0.0 <= r.bracket_width <= spectral.BRACKET_TOL * r.omega
        # omega lies in its bracket, which need not be centred on it
        s_a, s_c = batched(model_exp, np.array(
            [r.omega - r.bracket_width, r.omega + r.bracket_width]
        ), rep)[0]
        assert np.sign(s_a) * np.sign(s_c) <= 0
        assert abs(r.omega - target) <= spectral.BRACKET_TOL * target

    def test_newton_resumes_after_bisection(self, model_zero, monkeypatch):
        # from a seed at lo, the Newton step to the root just below hi is
        # more than half the bracket, so the point is bisected; from the
        # midpoint the exact Newton step, as long as the bisection's move,
        # is taken: a bisection sets no bound on the next Newton step
        root = 1.25 - 1e-9
        calls = []

        def linear(model, omegas, rep):
            calls.append(len(omegas))
            return omegas - root, np.ones(len(omegas))

        monkeypatch.setattr(spectral, "char_values", linear)
        lo, hi = np.array([1.0]), np.array([1.25])
        omega = spectral._refine(
            EigProblem(model_zero), lo.copy(), lo, hi, lo - root, hi - root
        )[0]
        assert omega[0] == pytest.approx(root, rel=1e-13)
        assert len(calls) <= 4

    @pytest.mark.parametrize("window", [spectral.SCAN_WINDOW, 10])
    @pytest.mark.parametrize("potential", ["0", "1", "exp(x)", "-0.9"])
    def test_seeds_within_a_certificate_step(
        self, model_zero, model_one, solver_models, monkeypatch, potential,
        window,
    ):
        # every degree-7 seed is within CERTIFY_STEP sqrt(tol) of its
        # certified root, so the first Newton step earns the certificate
        # pair in the next pass.  Windows of 10 points put roots in the
        # first and last cells of many windows; root 1 of -0.9, 0.316, is in
        # the scan's first cell, [h, 2 h].
        monkeypatch.setattr(spectral, "SCAN_WINDOW", window)
        model = {"0": model_zero, "1": model_one, **solver_models}[potential]
        batched, refine, scans, seeds = (
            spectral.char_values, spectral._refine, [], [])

        def recording_scan(model, omegas, *args):
            scans.append(omegas)
            return batched(model, omegas, *args)

        def recording_refine(problem, omega, lo, *args):
            seeds.append((scans[-1], omega.copy(), lo))
            return refine(problem, omega, lo, *args)

        monkeypatch.setattr(spectral, "char_values", recording_scan)
        monkeypatch.setattr(spectral, "_refine", recording_refine)
        res = find_eigenvalues(EigProblem(model), 460)
        omega = np.array([r.omega for r in res])
        seed = np.concatenate([s for _, s, _ in seeds])
        tol = spectral.BRACKET_TOL * np.maximum(1.0, omega)
        assert np.all(np.abs(seed - omega)
                      <= spectral.CERTIFY_STEP * np.sqrt(tol))
        first = sum(np.count_nonzero(lo == w[0]) for w, _, lo in seeds)
        last = sum(np.count_nonzero(lo == w[-2]) for w, _, lo in seeds)
        if window == 10:
            assert first and last
        elif potential == "-0.9":
            assert first

    def test_bracket_widths_within_tolerance(self):
        # the plain form's s on q = 20 is noisy near its roots; an end moved
        # to a point outside its bracket used to leave lo > hi on root 5
        model = build_model("20", PI, 1998, 25)
        res = find_eigenvalues(EigProblem(model, representation="plain"), 40)
        omega = np.array([r.omega for r in res])
        width = np.array([r.bracket_width for r in res])
        tol = spectral.BRACKET_TOL * np.maximum(1.0, omega)
        assert np.all((width >= 0.0) & (width <= tol))


class TestCertificateFromResult:
    """Each result carries its bracket's ends, so its certificate can be
    checked from the result alone."""

    @pytest.mark.parametrize("rep", ["improved", "plain"])
    @pytest.mark.parametrize("case", ["minus3_N15", "exp_460"])
    def test_sign_change_across_reported_ends(self, model_exp, case, rep):
        # root 1 of q = -3 at N = 15 (improved) is closed by narrowing, and
        # its omega -+ width/2 showed no sign change of s
        if case == "exp_460":
            model, count = model_exp, 460
        else:
            model = build_model("-3", PI, 1998, 25).with_truncation(15)
            count = 40
        res = find_eigenvalues(EigProblem(model, representation=rep), count)
        lo, hi, omega = (np.array([getattr(r, name) for r in res])
                         for name in ("lo", "hi", "omega"))
        assert np.all((lo <= omega) & (omega <= hi))
        assert [r.bracket_width for r in res] == (hi - lo).tolist()
        s_lo, s_hi = np.split(
            spectral.char_values(model, np.concatenate([lo, hi]), rep)[0], 2)
        assert np.all(np.sign(s_lo) * np.sign(s_hi) <= 0)


class TestEigProblemValidation:
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
        # direct evaluation: (1 + (e^pi - 1)/(2 pi))^2; a large-index
        # estimate, far from the true first eigenvalue 4.8967
        v = asymptotic_eigenvalue(1, math.e**PI - 1.0, PI)
        expected = (1.0 + (math.e**PI - 1.0) / (2 * PI)) ** 2
        assert v == pytest.approx(expected, rel=1e-15)
        assert v == pytest.approx(20.4648, abs=1e-4)

    def test_general_interval(self):
        # lam_n = (n pi/b)^2 + Q(b)/b + O(n^-2) on [0, b] for any b
        model = build_model("exp(x)", 2.0, 1998, 25)
        lam = find_eigenvalues(EigProblem(model), 200)[-1].lam
        v = asymptotic_eigenvalue(200, math.e**2 - 1.0, 2.0)
        assert abs(v - lam) <= 1e-4

    def test_index_validation(self):
        with pytest.raises(ValueError):
            asymptotic_eigenvalue(0, 1.0, PI)


def test_septic_matrix_inverts_the_hermite_conditions():
    # rows 2i map the values and slopes at t = 0..3 to the coefficient of
    # t^i in the degree-7 Hermite interpolant, rows 2i + 1 to that of p'
    t, i = np.arange(4.0)[:, None], np.arange(8)
    conditions = np.vstack([t**i, i * t ** np.maximum(i - 1, 0)])
    inv = spectral._SEPTIC[0::2]
    assert np.abs(inv @ conditions - np.eye(8)).max() <= 1e-12
    assert np.array_equal(spectral._SEPTIC[1::2, :],
                          np.vstack([i[1:, None] * inv[1:], np.zeros(8)]))


@pytest.mark.parametrize("q", ["exp(x)", "1/(x+0.1)^2", "-0.9", "-3"])
def test_scan_from_h_scan_refuses_nothing(q):
    # the improved form refuses omega < 1 where its 1/omega^2 terms leave
    # no digit; the scan's first points, from pi/(4b), keep theirs, and so
    # do the points that close in on a root below 1 (-0.9: omega_1 = 0.316;
    # -3: omega = 1, its lambda_1 = -2 is missed)
    model = build_model(q, PI, 1998, 25)
    problem = EigProblem(model)
    char_values(model, problem.h_scan * np.arange(1.0, 9.0), "improved")
    roots = find_eigenvalues(problem, 3)
    assert [r.index for r in roots] == [1, 2, 3]
