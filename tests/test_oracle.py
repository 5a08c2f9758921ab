import math

import numpy as np
import pytest

from nsbf import OracleError
from nsbf.oracle import (
    characteristic_reference,
    eigenvalues_reference,
    propagate,
    solution_reference,
)

from crosschecks import solution_reference_extended

PI = math.pi


def test_free_particle_phases():
    for w in (10.0, 100.0, 1000.0):
        u = solution_reference(lambda x: 0.0, PI, [w])[0]
        assert abs(u - np.exp(1j * w * PI)) < 5e-13


def test_constant_potential_closed_form():
    for w in (2.0, 50.0, 1000.0):
        u = solution_reference(lambda x: 1.0, PI, [w])[0]
        wp = math.sqrt(w * w - 1.0)
        exact = math.cos(wp * PI) + 1j * w * math.sin(wp * PI) / wp
        assert abs(u - exact) < 5e-13


def test_extended_mode_high_omega():
    u = solution_reference_extended(lambda x: 0.0, PI, [1000.0])[0]
    # the comparison phase must itself be formed in extended precision
    phase = np.longdouble(1000.0) * np.longdouble(PI)
    exact = complex(np.cos(phase)) + 1j * complex(np.sin(phase))
    assert abs(u - exact) < 5e-14


def test_batch_matches_scalar():
    ws = np.array([3.0, 17.0, 41.0])
    batch = solution_reference(math.exp, PI, ws)
    singles = [solution_reference(math.exp, PI, [w])[0] for w in ws]
    assert max(abs(b - s) for b, s in zip(batch, singles)) < 1e-12


def test_hyperbolic_initial_values():
    # lam = 0, u(0)=1, u'(0)=0 for q = 1 gives cosh
    y, _ = propagate(lambda x: 1.0, PI, [0.0], np.array([1.0, 0.0]))
    assert float(y[0, 0].real) == pytest.approx(math.cosh(PI), rel=1e-12)
    assert float(y[1, 0].real) == pytest.approx(math.sinh(PI), rel=1e-12)


def test_characteristic_zero_crossings():
    # q = 1: s(lam) = sin(sqrt(lam-1) pi)/sqrt(lam-1) vanishes at 1 + n^2
    lams = np.array([2.0, 5.0, 10.0])
    s = characteristic_reference(lambda x: 1.0, PI, lams)
    assert float(np.max(np.abs(s))) < 1e-12


def test_eigenvalues_reference_recovers_roots():
    seeds = np.array([1.0 + n * n + 3e-4 for n in range(1, 9)])
    lam = eigenvalues_reference(lambda x: 1.0, PI, seeds)
    exact = np.array([1.0 + n * n for n in range(1, 9)])
    assert float(np.max(np.abs(lam - exact))) < 1e-10


def test_eigenvalues_reference_needs_bracketable_seed():
    # 3.5 sits between the q=1 eigenvalues 2 and 5, far from both
    with pytest.raises(OracleError):
        eigenvalues_reference(lambda x: 1.0, PI, np.array([3.5]))
