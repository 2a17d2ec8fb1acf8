"""Adaptive panel quadrature against closed-form integrals."""

import math

import numpy as np
import pytest

from rodeo_sched import QuadratureError, integrate_oscillatory


def test_polynomial_is_exact():
    # degree 7 is inside the Gauss rule's exactness range
    value, bound = integrate_oscillatory(lambda x: x**7 - 3 * x**2, 0.0, 2.0)
    exact = 2.0**8 / 8 - 2.0**3
    assert abs(value - exact) < 1e-13
    assert bound < 1e-10


def test_rapid_oscillation_with_phase_budget():
    omega = 400.0
    value, bound = integrate_oscillatory(
        lambda x: np.cos(omega * x), 0.0, 1.0, phase_rate=omega)
    exact = math.sin(omega) / omega
    assert abs(value - exact) < 1e-12
    assert abs(value - exact) <= max(bound, 1e-13)


def test_error_bound_is_honest():
    rng = np.random.default_rng(7)
    for _ in range(20):
        omega = rng.uniform(5.0, 150.0)
        a, b = sorted(rng.uniform(0.0, 3.0, size=2))
        if b - a < 1e-3:
            continue
        value, bound = integrate_oscillatory(
            lambda x: np.sin(omega * x) * np.exp(-x), a, b, phase_rate=omega)
        antideriv = lambda x: math.exp(-x) * (-math.sin(omega * x)
                                              - omega * math.cos(omega * x))
        exact = (antideriv(b) - antideriv(a)) / (1 + omega**2)
        assert abs(value - exact) <= max(10 * bound, 1e-12)


def test_tight_tolerance_refines():
    loose = integrate_oscillatory(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0,
                                  abs_tol=1e-6)
    tight = integrate_oscillatory(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0,
                                  abs_tol=1e-12)
    exact = 4.0 / 3.0
    assert abs(tight[0] - exact) <= abs(loose[0] - exact) + 1e-12
    assert tight[1] <= loose[1]


def test_unreachable_tolerance_raises_with_estimate():
    with pytest.raises(QuadratureError) as info:
        integrate_oscillatory(lambda x: np.cos(3000.0 * x), 0.0, 1.0,
                              abs_tol=1e-16, max_rounds=2, max_panels=8)
    err = info.value
    assert math.isfinite(err.estimate)
    assert err.error_bound > 1e-16


def test_zero_width_interval_rejected():
    with pytest.raises(ValueError):
        integrate_oscillatory(lambda x: np.cos(x), 1.0, 1.0)


def test_column_valued_bounds_are_honest():
    rng = np.random.default_rng(11)
    for _ in range(10):
        omegas = rng.uniform(5.0, 150.0, size=6)
        a, b = sorted(rng.uniform(0.0, 3.0, size=2))
        if b - a < 1e-3:
            continue
        value, bound = integrate_oscillatory(
            lambda x: np.sin(np.outer(x, omegas)) * np.exp(-x)[:, None], a, b,
            phase_rate=omegas.max())
        assert value.shape == bound.shape == omegas.shape
        for w, v, e in zip(omegas, value, bound):
            antideriv = lambda x: math.exp(-x) * (-math.sin(w * x) - w * math.cos(w * x))
            exact = (antideriv(b) - antideriv(a)) / (1 + w**2)
            assert abs(v - exact) <= max(10 * e, 1e-12)
            assert e <= 1e-10


def test_one_column_matches_scalar_integrand():
    func = lambda x: np.cos(40.0 * x) * np.exp(-x)
    scalar = integrate_oscillatory(func, 0.0, 2.0, phase_rate=40.0)
    column = integrate_oscillatory(lambda x: func(x)[:, None], 0.0, 2.0, phase_rate=40.0)
    assert isinstance(scalar[0], float) and isinstance(scalar[1], float)
    assert column[0].shape == column[1].shape == (1,)
    np.testing.assert_allclose(column[0][0], scalar[0], rtol=1e-14)


def test_column_valued_failure_carries_column_estimates():
    omegas = np.array([3000.0, 2500.0])
    with pytest.raises(QuadratureError) as info:
        integrate_oscillatory(lambda x: np.cos(np.outer(x, omegas)), 0.0, 1.0,
                              abs_tol=1e-16, max_rounds=2, max_panels=8)
    assert info.value.estimate.shape == info.value.error_bound.shape == (2,)
