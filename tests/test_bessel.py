import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from nsbf import LimitError, spherical_j_sequence, spherical_j_table
from nsbf.bessel import (_ODD, N_CAP, _miller_run, _miller_start,
                         spherical_j_sum)

from crosschecks import miller_reference, sequence_reference, table_reference

mp.mp.dps = 40


def reference_jn(n: int, z) -> complex:
    if not isinstance(z, complex) and z < 0:
        # reduce by parity: mpmath's half-integer Bessel takes the branch
        # cut on the negative axis
        return (-1) ** n * reference_jn(n, -z)
    zz = mp.mpc(z) if isinstance(z, complex) else mp.mpf(z)
    if zz == 0:
        return 1.0 if n == 0 else 0.0
    return complex(mp.sqrt(mp.pi / (2 * zz)) * mp.besselj(n + mp.mpf(1) / 2, zz))


def test_zero_argument():
    seq = spherical_j_sequence(5, 0.0)
    assert seq[0] == 1.0
    assert np.all(seq[1:] == 0.0)


def test_j1_at_pi_closed_form():
    seq = spherical_j_sequence(2, math.pi)
    assert seq[1] == pytest.approx(1.0 / math.pi, abs=1e-15)


def test_reference_comparison_z10():
    seq = spherical_j_sequence(30, 10.0)
    for n in range(31):
        ref = reference_jn(n, 10.0)
        if abs(ref) > 1e-280:
            assert abs(seq[n] - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize(
    "z", [1e-9, 0.1, 1.0, 5.5, 20.0, 120.5, 1445.0, -20.0, 3 + 2j, 0.4 + 0.1j]
)
def test_reference_comparison_sweep(z):
    seq = spherical_j_sequence(30, z)
    for n in range(31):
        ref = reference_jn(n, z)
        if abs(ref) > 1e-280:
            assert abs(complex(seq[n]) - ref) <= 1e-12 * abs(ref)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND 68: near the imaginary axis, with |z| just above N, j_n falls "
    "with n and the upward branch is unstable"))
def test_upward_branch_near_the_imaginary_axis():
    for z in (1 + 33j, 33j):
        seq = spherical_j_sequence(27, z)
        for n in range(28):
            ref = reference_jn(n, z)
            assert abs(complex(seq[n]) - ref) <= 1e-12 * abs(ref), (z, n)


def test_identity_three_term_combination():
    # j_n(z)/z^2 expressed through orders n-2, n, n+2
    for z in (1.0, 5.5, 20.0, 3 + 2j):
        seq = spherical_j_sequence(29, z)
        for n in range(2, 28):
            lhs = seq[n] / z**2
            rhs = (
                seq[n - 2] / ((2 * n - 1) * (2 * n + 1))
                + 2 * seq[n] / ((2 * n - 1) * (2 * n + 3))
                + seq[n + 2] / ((2 * n + 1) * (2 * n + 3))
            )
            assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


def test_parity():
    for z in (0.7, 4.0, 33.0):
        plus = spherical_j_sequence(12, z)
        minus = spherical_j_sequence(12, -z)
        signs = np.array([(-1.0) ** n for n in range(13)])
        assert float(np.max(np.abs(minus - signs * plus))) < 1e-15


def test_three_term_recurrence_invariant():
    for z in (2.5, 40.0, 7 + 1j):
        seq = spherical_j_sequence(25, z)
        for n in range(1, 24):
            lhs = seq[n - 1] + seq[n + 1]
            rhs = (2 * n + 1) * seq[n] / z
            scale = max(abs(lhs), abs(rhs))
            if scale > 1e-250:
                assert abs(lhs - rhs) <= 1e-12 * scale


def test_orthogonality_quadrature():
    # integral of j2*j4 over the real line vanishes; j2^2 integrates to pi/5
    z = np.linspace(-2000.0, 2000.0, 4_000_001)
    with np.errstate(invalid="ignore", divide="ignore"):
        j2 = (3.0 / z**2 - 1.0) * np.sin(z) / z - 3.0 * np.cos(z) / z**2
        j4 = (
            (105.0 / z**4 - 45.0 / z**2 + 1.0) * np.sin(z) / z
            + (10.0 / z**2 - 105.0 / z**4) * np.cos(z)
        )
    j2[len(z) // 2] = 0.0
    j4[len(z) // 2] = 0.0
    h = z[1] - z[0]
    same = np.trapezoid(j2 * j2, dx=h)
    cross = np.trapezoid(j2 * j4, dx=h)
    assert abs(same - math.pi / 5.0) < 1e-3
    assert abs(cross) < 1e-3


def test_order_cap():
    with pytest.raises(LimitError):
        spherical_j_sequence(121, 1.0)
    with pytest.raises(LimitError, match="non-negative"):
        spherical_j_sequence(-1, 1.0)


def test_imaginary_overflow_guard():
    with pytest.raises(LimitError):
        spherical_j_sequence(10, 1.0 + 701.0j)
    seq = spherical_j_sequence(3, 1.0 + 650.0j)
    assert np.all(np.isfinite(seq.view(float)))


@pytest.mark.parametrize("N", [4, 25, 27])
def test_table_matches_scalar_sequence(N):
    # every branch: the series, Miller (including near zeros of j_0, where
    # the normalization switches to j_1), and upward recurrence on both
    # sides of z = N
    z = np.array([
        1e-9, 0.05, 0.78, math.pi, math.pi + 1e-9, 2 * math.pi - 1e-10,
        3 * math.pi, N - 0.5, N + 0.5, 1500.0,
    ])
    table = spherical_j_table(N, z)
    assert table.shape == (N + 1, z.size)
    for k, zk in enumerate(z):
        seq = spherical_j_sequence(N, float(zk))
        err = np.abs(table[:, k] - seq) / np.maximum(1.0, np.abs(seq))
        assert float(np.max(err)) <= 1e-14, zk


def branch_sweep(N):
    """Every branch of the table: the series (z < 1); Miller from z = 1 on,
    with j_0, j_1 by the closed form and near zeros of j_0; upward
    recurrence on both sides of z = N."""
    return np.array([
        1e-9, 1e-6, 0.05, 0.78, 1.0, math.pi, 2 * math.pi - 1e-10,
        3 * math.pi, N - 0.5, N + 0.5, 1500.0,
    ])


@pytest.mark.parametrize("N", [4, 27, 119])
def test_table_reference_comparison(N):
    # every branch straight against mpmath
    z = branch_sweep(N)
    table = spherical_j_table(N, z)
    for k, zk in enumerate(z):
        for n in range(N + 1):
            ref = reference_jn(n, float(zk))
            if abs(ref) > 1e-280:
                assert abs(table[n, k] - ref) <= 1e-12 * abs(ref), (n, zk)


@pytest.mark.parametrize("N", [4, 27, 119])
def test_table_columns_do_not_depend_on_the_batch(N):
    z = branch_sweep(N)
    table = spherical_j_table(N, z)
    for k in range(z.size):
        alone = spherical_j_table(N, z[k : k + 1])
        assert np.array_equal(table[:, k], alone[:, 0]), z[k]


@pytest.mark.parametrize("N", [1, 4, 27, 119, 120])
def test_table_columns_are_the_scalar_sequence(N):
    # the table takes the sequence's rule and top order: every column (the
    # series, Miller runs, the switch to j_1 near a zero of j_0 and the
    # upward branch on both sides of z = N) has the sequence's bits
    z = branch_sweep(N)
    table = spherical_j_table(N, z)
    for k, zk in enumerate(z.tolist()):
        assert np.array_equal(table[:, k], spherical_j_sequence(N, zk)), zk


def test_no_branch_needs_rescaling():
    # from |z| = 1 up the unnormalized Miller run stays far from overflow
    # at every top order; below 1 the series serves every order
    for z in (1.0, -1.0, 1j, cmath.exp(0.25j * math.pi)):
        for top in range(1, N_CAP + 1):
            values = _miller_run(z, top + 1, _miller_start(top, 1.0))[0]
            assert all(cmath.isfinite(v) and abs(v) < 1e300 for v in values)
    table = spherical_j_table(N_CAP, np.array([1e-6]))
    assert np.all(np.isfinite(table))
    assert np.array_equal(table[:, 0], spherical_j_sequence(N_CAP, 1e-6))


def test_table_renormalizes_tiny_arguments():
    # at z = 1e-6 an unnormalized run down from order 180 would pass 1e250
    # many times; the series keeps every column finite and equal to the
    # sequence
    z = np.array([1e-6, 1e-4, 0.5])
    table = spherical_j_table(N_CAP, z)
    assert np.all(np.isfinite(table))
    for k, zk in enumerate(z.tolist()):
        assert np.array_equal(table[:, k], spherical_j_sequence(N_CAP, zk)), zk


def test_table_input_validation():
    with pytest.raises(LimitError):
        spherical_j_table(121, np.array([1.0]))
    with pytest.raises(ValueError):
        spherical_j_table(5, np.array([0.0, 1.0]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_table_refuses_a_non_finite_argument(bad):
    # the table refuses as the sequence does, in its words
    with pytest.raises(LimitError, match="is not finite"):
        spherical_j_sequence(3, bad)
    with pytest.raises(LimitError, match="is not finite"):
        spherical_j_table(3, np.array([2.0, bad]))


#: orders whose bits the recurrences are checked on: the smallest tables,
#: the solution layer's truncations and the cap
BIT_ORDERS = [0, 1, 2, 15, 27, 60, 120]


def seeded_real_arguments(N, seed=2024):
    """Positive z on every branch at order N: the series from 1e-12 to 1;
    Miller from 1 to N; upward recurrence on both sides of z = N."""
    rng = np.random.default_rng(seed + N)
    return np.concatenate([
        rng.uniform(1e-12, 1e-8, 3),
        rng.uniform(1e-8, 1e-3, 4),
        rng.uniform(1e-3, 0.1, 4),
        rng.uniform(0.1, max(N, 0.1), 8),
        N + rng.uniform(1e-9, 50.0, 8),
        rng.uniform(50.0, 3000.0, 4),
    ])


def series_reference_jn(n: int, z) -> complex:
    """z^n/(2n+1)!! 0F1(; n + 3/2; -z^2/4) at 40 digits: entire in z, so
    right on the negative axis too, where sqrt(pi/(2z)) J_{n+1/2} is not."""
    zz = mp.mpc(z) if isinstance(z, complex) else mp.mpf(z)
    return complex(zz**n / mp.fac2(2 * n + 1) * mp.hyp0f1(n + 1.5, -zz * zz / 4))


@pytest.mark.parametrize("N", [0, 1, 2, 5, 27, 62, 120])
def test_series_accuracy_below_one(N):
    # every order of the sequence, the sum and the table within 2 (n + 4)
    # eps relative of the series (plus an ulp per order where j_n leaves
    # the normal range)
    rng = np.random.default_rng(500 + N)
    radii = np.concatenate([10.0 ** rng.uniform(-9.0, 0.0, 10),
                            rng.uniform(0.1, 1.0, 10),
                            [1e-9, 0.112, 0.12, 0.3, 1.0 - 2.0**-52]]).tolist()
    angles = rng.uniform(-math.pi, math.pi, len(radii)).tolist()
    cplx = [r * complex(math.cos(t), math.sin(t)) for r, t in zip(radii, angles)]
    eps = np.finfo(float).eps
    for z in radii + [-r for r in radii] + cplx + [0.0458 - 0.1104j]:
        rows = [spherical_j_sequence(N, z).tolist()]
        if not isinstance(z, complex) and z > 0.0:
            rows.append(spherical_j_table(N, np.array([z]))[:, 0].tolist())
        for n in range(N + 1):
            unit = [0.0] * (N + 1)
            unit[n] = 1.0
            ref = series_reference_jn(n, z)
            bound = 2 * (n + 4) * (eps * abs(ref) + 5e-324)
            for value in [row[n] for row in rows] + [spherical_j_sum(unit, z)]:
                assert abs(value - ref) <= bound, (z, n, abs(value - ref) / bound)


@pytest.mark.parametrize("N", BIT_ORDERS)
def test_sequence_bits_equal_the_straightforward_recurrence(N):
    rng = np.random.default_rng(N)
    real = seeded_real_arguments(N).tolist()
    # complex z on the same radii, |Im z| within the overflow guard
    angles = rng.uniform(-math.pi, math.pi, len(real))
    cplx = [r * complex(math.cos(t), math.sin(t))
            for r, t in zip(real, angles) if r < 600.0]
    for z in real + [-z for z in real] + cplx:
        seq, ref = spherical_j_sequence(N, z), sequence_reference(N, z)
        assert seq.dtype == ref.dtype and np.array_equal(seq, ref), z


def test_renormalized_miller_bits():
    # at N = 120 an unnormalized downward run from z <= 1e-3 would pass
    # 1e250: the tiny arguments, real and complex, keep the reference's bits
    for z in np.geomspace(1e-8, 1e-3, 12).tolist():
        for w in (z, complex(z, z / 3)):
            assert np.array_equal(spherical_j_sequence(120, w),
                                  sequence_reference(120, w)), w


@pytest.mark.parametrize("N", BIT_ORDERS)
def test_table_bits_equal_the_straightforward_recurrence(N):
    z = np.random.default_rng(7).permutation(seeded_real_arguments(N))
    table = spherical_j_table(N, z)
    assert np.array_equal(table, table_reference(N, z))
    for k in range(z.size):
        assert np.array_equal(table[:, k], spherical_j_table(N, z[k : k + 1])[:, 0])


@pytest.mark.parametrize("z", [np.complex64(3 + 2j), np.float32(5.0),
                               np.complex128(0.5 - 1j), np.longdouble(2.5)],
                         ids=["complex64", "float32", "complex128", "longdouble"])
def test_numpy_scalar_argument_is_its_python_value(z):
    # a complex64 used to lose its imaginary part (with a ComplexWarning)
    value = complex(z) if np.iscomplexobj(z) else float(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = spherical_j_sequence(12, z)
    ref = spherical_j_sequence(12, value)
    assert seq.dtype == ref.dtype and np.array_equal(seq, ref)


def start_rule_grid(top):
    """z with |z| <= top on the Miller branch: real, and complex at three
    angles with |Im z| at most 50."""
    points = []
    for r in (0.3, top / 3.0, 2.0 * top / 3.0, float(top)):
        points.append(r)
        for angle in (math.pi / 6, math.pi / 3, math.pi / 2):
            im = min(r * math.sin(angle), 50.0)
            points.append(complex(math.sqrt(r * r - im * im), im))
    return list(dict.fromkeys(points))


def relative_errors(runs, z):
    """Largest relative error of each run of orders 0.. against mpmath."""
    worst = [0.0] * len(runs)
    for n in range(len(runs[0])):
        ref = reference_jn(n, z)
        if abs(ref) > 1e-280:
            for k, run in enumerate(runs):
                worst[k] = max(worst[k], abs(complex(run[n]) - ref) / abs(ref))
    return worst


@pytest.mark.parametrize("top", [5, 17, 27, 62, 120])
def test_miller_start_rule_against_mpmath(top):
    # the Debye start is at most as wrong, within a factor 2, as the
    # fixed margin top + ceil(15 + |z|) it replaced, on the same grid
    new = old = 0.0
    for z in start_rule_grid(top):
        a = abs(z)
        start, fixed = _miller_start(top, a), top + math.ceil(15.0 + a)
        assert top < start <= fixed, z
        out = np.zeros(top + 1, complex if isinstance(z, complex) else float)
        errors = relative_errors([miller_reference(z, out.copy(), start),
                                  miller_reference(z, out.copy(), fixed)], z)
        new, old = max(new, errors[0]), max(old, errors[1])
    assert new <= 2.0 * old, (new, old)
    assert new <= 1e-12


def test_miller_start_grows_with_the_argument():
    # the Debye margin F(n) - F(top) falls as |z| grows, so the start
    # order read at the next integer up from |z| is never short of it
    for top in (1, 27, 121):
        starts = [_miller_start(top, a) for a in np.linspace(1e-8, top, 97)]
        assert starts == sorted(starts)
    assert _miller_start(62, 62.0) == 93
    # every run, up to the top order N_CAP, finds its 2n+1
    assert max(_miller_start(top, float(top))
               for top in range(1, N_CAP + 1)) < len(_ODD)


#: every branch of the sum: the series (zero and |z| up to 0.78), Miller,
#: upward on both sides of |z| = N, real and complex
SUM_ARGUMENTS = [0.0, 1e-9, 1e-6, 0.05, 0.78, math.pi, 26.5, 27.5, 1500.0,
                 -20.0, 3 + 2j, 0.04 - 0.03j, 20 - 15j, 300 + 600j, 1e-7j]


@pytest.mark.parametrize("N", [0, 1, 2, 27, 120])
def test_sum_meets_the_dot_product(N):
    rng = np.random.default_rng(N)
    for z in SUM_ARGUMENTS:
        c = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
        seq = spherical_j_sequence(N, z)
        total = spherical_j_sum(c.tolist(), z)
        assert isinstance(total, complex)
        bound = 2 * (N + 2) * np.finfo(float).eps * np.sum(np.abs(c * seq))
        assert abs(total - complex(np.dot(c, seq))) <= bound, z


@pytest.mark.parametrize("N", [0, 1, 2, 15, 27, 62, 120])
def test_unit_sum_is_the_sequence_value(N):
    # the sum steps each order as the sequence does, so coefficient vector
    # e_k picks out the sequence's j_k bit for bit; complex z only past
    # |z| = N, where a Miller run's factor is not a numpy product
    rng = np.random.default_rng(100 + N)
    real = seeded_real_arguments(N, seed=31).tolist()
    radii = np.concatenate([N + rng.uniform(1e-9, 50.0, 32),
                            rng.uniform(200.0, 690.0, 8)]).tolist()
    angles = rng.uniform(-math.pi, math.pi, len(radii)).tolist()
    cplx = [r * complex(math.cos(t), math.sin(t)) for r, t in zip(radii, angles)]
    for z in real + [-z for z in real] + cplx:
        seq = spherical_j_sequence(N, z).tolist()
        for k in range(N + 1):
            unit = [0.0] * (N + 1)
            unit[k] = 1.0
            assert spherical_j_sum(unit, z) == seq[k], (z, k)


def test_sum_of_real_coefficients_is_a_float():
    assert isinstance(spherical_j_sum([1.0, 2.0, 0.5], 1.3), float)
    assert spherical_j_sum([2.5], 0.0) == 2.5


def test_sum_refusals():
    with pytest.raises(LimitError):
        spherical_j_sum([1.0] * 5, 1.0 + 701.0j)
    with pytest.raises(LimitError):
        spherical_j_sum([1.0] * 122, 1.0)
    with pytest.raises(LimitError, match="non-negative"):
        spherical_j_sum([], 1.0)


def test_sum_overflows_without_a_warning():
    # no numpy runs in the sum: a term past float64 is inf, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total = spherical_j_sum([1e300] * 28, 10.0 + 699.0j)
    assert not np.isfinite(total)


def test_complex_argument_on_the_real_axis():
    # a complex z with a zero imaginary part used to raise TypeError
    for N in (3, 30):
        assert np.array_equal(spherical_j_sequence(N, 3 + 0j),
                              spherical_j_sequence(N, 3.0))
        c = [1.0 + 1j] * (N + 1)
        assert spherical_j_sum(c, 3 - 0j) == spherical_j_sum(c, 3.0)
