"""Suppression product, its expansions, decay fits, and the random baseline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodeo_sched import (PISOT_EXAMPLES, decay_envelope, fit_decay_exponent,
                         fourier_expansion, product_function, rra_average_success)
from rodeo_sched.asymptotics import GOLDEN_RATIO, PLASTIC_NUMBER, _auto_terms, _product_times
from rodeo_sched.spectral import GRID_BLOCK, SHORT_PHASE, log_survival, log_survival_grid


def test_alpha_two_collapses_to_squared_sinc():
    theta = np.linspace(0.2, 60.0, 500)
    got = product_function(2.0, theta, 40)
    expected = (np.sin(theta) / theta) ** 2
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_product_definition_small_n():
    alpha, theta, n = 1.6, 2.3, 4
    direct = np.prod([math.cos((1 - 1 / alpha) * theta / alpha ** (k - 1)) ** 2
                      for k in range(1, n + 1)])
    np.testing.assert_allclose(product_function(alpha, theta, n), direct,
                               rtol=1e-13)


def test_product_auto_truncation_converges():
    # the infinite-product value must be insensitive to adding terms
    v_auto = product_function(1.5, 7.0)
    v_more = product_function(1.5, 7.0, 200)
    np.testing.assert_allclose(v_auto, v_more, rtol=1e-12)


def test_fourier_matches_product():
    rng = np.random.default_rng(5)
    for _ in range(60):
        alpha = rng.uniform(1.05, 3.0)
        theta = rng.uniform(0.1, 50.0)
        n = int(rng.integers(1, 14))
        a = product_function(alpha, theta, n)
        b = fourier_expansion(alpha, theta, n)
        assert abs(a - b) < 1e-12


def test_fourier_term_cap():
    with pytest.raises(ValueError):
        fourier_expansion(1.5, 1.0, 40)


def test_exp_regime_approximates_product_at_large_theta():
    # for alpha = 1 + b/theta with theta >> b the per-cycle angle is
    # nearly constant, so the product approaches cos(b)^(2N)
    b, theta, n = 0.5, 4000.0, 10
    alpha = 1.0 + b / theta
    exact = product_function(alpha, theta, n)
    approx = math.cos(b) ** (2 * n)
    np.testing.assert_allclose(approx, exact, rtol=1e-2)


def test_rra_average_success_formula():
    # mean of cos^2(delta t / 2) over half-normal t with width sigma
    for delta, sigma, n in ((1.0, 1.0, 1), (0.7, 2.0, 3), (2.0, 0.5, 6)):
        expected = ((1.0 + math.exp(-(sigma * delta) ** 2 / 2.0)) / 2.0) ** n
        np.testing.assert_allclose(rra_average_success(delta, sigma, n),
                                   expected, rtol=1e-13)


def test_rra_average_success_monte_carlo():
    rng = np.random.default_rng(123)
    delta, sigma, n = 1.0, 1.0, 2
    t = np.abs(rng.normal(0.0, sigma, size=(200_000, n)))
    samples = np.prod(np.cos(delta * t / 2.0) ** 2, axis=1)
    se = samples.std() / math.sqrt(len(samples))
    assert abs(samples.mean() - rra_average_success(delta, sigma, n)) < 3 * se


def test_decay_envelope_windows():
    centers, maxima = decay_envelope(2.0, 100.0, 1000.0, n_windows=10)
    assert len(centers) == len(maxima) == 10
    assert np.all(np.diff(centers) > 0)
    assert np.all(maxima > 0)


def test_fit_decay_exponent_alpha_two():
    fit = fit_decay_exponent(2.0, 3000.0, theta_min=100.0, n_windows=30)
    assert abs(fit.gamma - 2.0) < 0.12
    assert not fit.non_decaying


def test_fit_flags_pisot_ratios():
    golden = fit_decay_exponent(GOLDEN_RATIO, 3000.0, theta_min=100.0,
                                n_windows=30)
    assert golden.non_decaying
    plastic = fit_decay_exponent(PLASTIC_NUMBER, 3000.0, theta_min=100.0,
                                 n_windows=30)
    assert plastic.non_decaying


def test_fit_does_not_flag_generic_ratios():
    for alpha in (1.3, 1.5, 1.8):
        fit = fit_decay_exponent(alpha, 3000.0, theta_min=100.0, n_windows=30)
        assert not fit.non_decaying, alpha


def test_pisot_examples_registry():
    assert set(PISOT_EXAMPLES) == {"golden_ratio", "plastic_number", "two"}
    assert PISOT_EXAMPLES["two"] == 2.0
    np.testing.assert_allclose(GOLDEN_RATIO, (1 + math.sqrt(5)) / 2, rtol=1e-15)
    # the plastic number is the real root of x**3 = x + 1
    np.testing.assert_allclose(PLASTIC_NUMBER**3, PLASTIC_NUMBER + 1, rtol=1e-14)


def test_fit_range_validation():
    with pytest.raises(ValueError):
        fit_decay_exponent(1.5, 500.0)
    with pytest.raises(ValueError):
        product_function(0.99, 1.0, 5)


def test_decay_envelope_rejects_an_empty_window_count():
    with pytest.raises(ValueError, match="n_windows"):
        decay_envelope(2.0, 100.0, 1000.0, n_windows=0)
    with pytest.raises(ValueError, match="n_windows"):
        fit_decay_exponent(2.0, 3000.0, n_windows=-1)


@pytest.mark.parametrize("alpha", [2.0, GOLDEN_RATIO, 1.05])
def test_grid_kernel_matches_mpmath_at_its_own_samples(alpha):
    # Level m*B + i of log_survival_grid sits at x_mB + i * step: the
    # block's first linspace level plus i steps, summed exactly here.
    # The cycles are decay-fit's at theta_max = 1e5 (647 at alpha = 1.05).
    # Near theta = 1e5 a float phase itself is off by about 1e-16 theta,
    # which moves log C by up to about 1e-9 on either path.
    mpmath = pytest.importorskip("mpmath")
    start, stop, count = 1000.0, 1120.0, 601  # two whole blocks and a part
    times = _product_times(alpha, _auto_terms(alpha, 1e5))
    got = log_survival_grid(start, stop, count, times)
    levels = np.linspace(start, stop, count)
    step = (stop - start) / (count - 1)
    # where C is at least 1e-6 of the window's maximum
    near_peak = np.flatnonzero(got >= got.max() + math.log(1e-6))
    picks = near_peak[np.linspace(0, near_peak.size - 1, 24).astype(int)]
    with mpmath.workdps(40):
        for j in picks:
            block, i = divmod(int(j), GRID_BLOCK)
            theta = mpmath.mpf(float(levels[block * GRID_BLOCK])) + i * mpmath.mpf(step)
            exact = sum(2 * mpmath.log(abs(mpmath.cos(theta * mpmath.mpf(float(t)) / 2)))
                        for t in times)
            assert abs(got[j] - exact) <= 1e-11, (j, float(got[j] - exact))


@settings(max_examples=60, deadline=None)
@given(st.floats(1.05, 3.0), st.floats(400.0, 1e5), st.floats(6.0, 300.0))
def test_grid_window_maxima_match_the_product(alpha, stop, width):
    # decay_envelope's windows: samples 0.2 apart, so a window holds peaks.
    # Each path rounds a phase phi to about |phi| eps, which moves log C
    # by about sum 2 |phi tan phi| eps: against mpmath at theta near 5e4
    # and 7e4, product_function's own log C was off by 7.7e-12 and 2.7e-11.
    # So the maxima agree to 1e-11 plus twice that rounding at the peak.
    start, count = stop - width, max(32, math.ceil(width / 0.2) + 1)
    thetas = np.linspace(start, stop, count)
    times = _product_times(alpha, _auto_terms(alpha, stop))
    values = product_function(alpha, thetas, times.size)
    phases = 0.5 * thetas[np.argmax(values)] * times
    rounding = 2.0 * np.sum(np.abs(phases * np.tan(phases))) * np.finfo(float).eps
    got = math.exp(log_survival_grid(start, stop, count, times).max())
    assert got == pytest.approx(values.max(), rel=1e-11 + 2.0 * rounding, abs=0.0)


def test_grid_kernel_keeps_short_cycles_on_log_survival():
    # short cycles alone: log_survival's own bits; a zero time adds 0
    times = np.array([0.0, 1e-3, 2e-3, 4e-3])
    got = log_survival_grid(2.0, 50.0, 700, times)
    assert np.array_equal(got, log_survival(np.linspace(2.0, 50.0, 700), times[:, None])[:, 0])
    assert np.array_equal(log_survival_grid(2.0, 50.0, 0, times), np.empty(0))


def test_decay_fit_counts_its_work():
    alpha, theta_min, theta_max, windows = 1.5, 100.0, 3000.0, 30
    fit = fit_decay_exponent(alpha, theta_max, theta_min=theta_min, n_windows=windows)
    edges = np.geomspace(theta_min, theta_max, windows + 1)
    counts = [max(32, math.ceil((hi - lo) / 0.2) + 1) for lo, hi in zip(edges, edges[1:])]
    times = _product_times(alpha, _auto_terms(alpha, theta_max))
    # a window's long cycles: h t > SHORT_PHASE at its largest level
    long = [int(np.count_nonzero(~(times <= SHORT_PHASE / (0.5 * hi)))) for hi in edges[1:]]
    assert fit.work == {
        "theta_samples": sum(counts),
        "factors_per_sample": times.size,
        "factors": {"series": sum(c * (times.size - k) for c, k in zip(counts, long)),
                    "cos": 0,
                    "angle_addition": sum(c * k for c, k in zip(counts, long))},
    }
