"""Adaptive panel quadrature against closed-form integrals."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from rodeo_sched import (BandModel, QuadratureError, geometric_times, integrate_oscillatory,
                         quadrature, rsn_quadrature_batch)


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


def test_unreachable_tolerance_raises_with_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_ROUNDS", 2)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    with pytest.raises(QuadratureError) as info:
        integrate_oscillatory(lambda x: np.cos(3000.0 * x), 0.0, 1.0, abs_tol=1e-16)
    err = info.value
    assert isinstance(err.estimate, float) and isinstance(err.error_bound, float)
    assert math.isfinite(err.estimate)
    assert err.error_bound > 1e-16


def test_zero_width_interval_rejected():
    with pytest.raises(ValueError):
        integrate_oscillatory(lambda x: np.cos(x), 1.0, 1.0)


@pytest.mark.parametrize("integrand, shape", [
    (lambda x: 1.0, "()"),
    (lambda x: np.stack([x, x], axis=1), "(15, 2)"),
    (lambda x: x[:, None], "(15, 1)"),
    (lambda x: x[:-1], "(14,)"),
])
def test_an_integrand_without_one_value_per_point_is_rejected(integrand, shape):
    with pytest.raises(ValueError, match=rf"one value per point: got shape {re.escape(shape)}"):
        integrate_oscillatory(integrand, 0.0, 1.0)


def test_column_valued_bounds_are_honest():
    rng = np.random.default_rng(11)
    for _ in range(10):
        omegas = rng.uniform(5.0, 150.0, size=6)
        a, b = sorted(rng.uniform(0.0, 3.0, size=2))
        if b - a < 1e-3:
            continue
        value, bound = quadrature._integrate_columns(
            lambda x, cols: np.sin(np.outer(x, omegas[cols])) * np.exp(-x)[:, None], a, b,
            omegas, quadrature.ABS_TOL)
        assert value.shape == bound.shape == omegas.shape
        for w, v, e in zip(omegas, value, bound):
            antideriv = lambda x: math.exp(-x) * (-math.sin(w * x) - w * math.cos(w * x))
            exact = (antideriv(b) - antideriv(a)) / (1 + w**2)
            assert abs(v - exact) <= max(10 * e, 1e-12)
            assert e <= 1e-10


def test_one_column_matches_scalar_integrand():
    func = lambda x: np.cos(40.0 * x) * np.exp(-x)
    scalar = integrate_oscillatory(func, 0.0, 2.0, phase_rate=40.0)
    column = quadrature._integrate_columns(lambda x, cols: func(x)[:, None], 0.0, 2.0,
                                           np.array([40.0]), quadrature.ABS_TOL)
    assert isinstance(scalar[0], float) and isinstance(scalar[1], float)
    assert column[0].shape == column[1].shape == (1,)
    assert np.array(scalar).tobytes() == np.concatenate(column).tobytes()


def test_column_valued_failure_carries_column_estimates(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_ROUNDS", 2)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    omegas = np.array([3000.0, 2500.0])
    with pytest.raises(QuadratureError) as info:
        quadrature._integrate_columns(lambda x, cols: np.cos(np.outer(x, omegas[cols])),
                                      0.0, 1.0, omegas, 1e-16)
    assert info.value.estimate.shape == info.value.error_bound.shape == (2,)


def test_unreachable_batch_tolerance_stops_each_column_at_its_panel_cap(monkeypatch):
    # 60 columns from one starting panel, each refined on its own until it
    # reaches MAX_PANELS; no integrand call holds more than
    # MAX_PANEL_COLUMNS panels x columns, and the failure carries every
    # column's estimate.
    cap = 6_000
    monkeypatch.setattr(quadrature, "MAX_PANEL_COLUMNS", cap)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 500)
    omegas = np.linspace(50.0, 400.0, 60)
    sizes = []

    def func(x, cols):
        sizes.append(len(x) // 15 * len(cols))
        return np.cos(np.outer(x, omegas[cols]))

    with pytest.raises(QuadratureError, match="in 60 of 60 columns") as info:
        quadrature._integrate_columns(func, 0.0, 1.0, np.zeros(60), 1e-30)
    assert info.value.estimate.shape == info.value.error_bound.shape == (60,)
    assert np.all(np.isfinite(info.value.estimate))
    assert max(sizes) <= cap < sum(sizes)


def test_long_horizon_batch_refines_past_the_panel_column_bound(monkeypatch):
    # 240 ratio-grid columns whose one-period starting sets (up to 46
    # panels) together pass the bound, so each integrand call holds a
    # chunk of columns; they refine to reach abs_tol, and every column
    # keeps the bits of its one-column call.
    cap = 10_000
    monkeypatch.setattr(quadrature, "MAX_PANEL_COLUMNS", cap)
    twin = BandModel(0.1, 1.0).quadrature_twin()
    tm = geometric_times(1.0 + np.geomspace(1e-3, 2.0, 240), 10, 100 * math.pi)
    assert math.ceil(0.9 * tm.sum(axis=0).max() / quadrature.PHASE_BUDGET) * 240 > cap
    batched = rsn_quadrature_batch(twin, 0.0, tm, abs_tol=1e-12)
    per_column = [rsn_quadrature_batch(twin, 0.0, tm[:, [j]], abs_tol=1e-12)[0]
                  for j in range(240)]
    assert batched.tolist() == per_column


def test_wide_batch_is_integrated_in_chunks_within_the_panel_column_bound(monkeypatch):
    # 240 ratio-grid columns on a 46-panel starting set: one integrand
    # call would evaluate 11,040 panels x columns. Lowering the bound must
    # lower the peak with it, and chunking must not change what the
    # per-column route computes.
    twin = BandModel(0.1, 1.0).quadrature_twin()
    tm = geometric_times(1.0 + np.geomspace(1e-3, 1.0, 240), 10, 100 * math.pi)
    n0 = quadrature.starting_panels(0.1, 1.0, tm.sum(axis=0).max())
    assert n0 == 46
    per_column = [rsn_quadrature_batch(twin, 0.0, tm[:, [j]])[0] for j in range(240)]

    def peak_of_batch():
        tracemalloc.start()
        try:
            batched = rsn_quadrature_batch(twin, 0.0, tm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batched.tolist() == per_column
        return peak

    whole = peak_of_batch()
    peaks = []
    for cap in (4 * n0, 8 * n0):
        monkeypatch.setattr(quadrature, "MAX_PANEL_COLUMNS", cap)
        peaks.append(peak_of_batch())
        # one integrand plane is 15 points x 8 bytes per panel and column
        assert peaks[-1] < 24 * 15 * 8 * cap
    # The kernel's one block of at most KERNEL_BLOCK_DOUBLES phases (512 kB)
    # is most of a chunked call's peak, and of the 2.1 MB of the whole.
    assert peaks[0] < peaks[1] < whole / 3
