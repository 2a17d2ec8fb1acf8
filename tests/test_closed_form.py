"""Exact sign-enumeration residual weight and its large-time limits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodeo_sched import (BandModel, ContinuousBand, TimeSchedule,
                         asymptotic_rsn, band_sinc_sum, rsn_closed_form,
                         rsn_closed_form_batch, rsn_quadrature,
                         superiteration_limit_rsn, superiteration_schedule)
from rodeo_sched.closed_form import MAX_ENUM_N, sinc

BAND = BandModel(0.1, 1.0)


def _two_sided(band):
    table = np.array([[band.delta_min, 2.0], [band.delta_max, 2.0]])
    return ContinuousBand(band.delta_min, band.delta_max, table, normalize=False)


def test_sinc_matches_numpy_away_from_zero():
    x = np.linspace(0.5, 40.0, 300)
    np.testing.assert_allclose(sinc(x), np.sin(x) / x, rtol=1e-14)


def test_sinc_taylor_branch_is_smooth():
    # values straddling the series cutoff must agree to full precision
    x = np.array([1e-5, 5e-5, 9.9e-5, 1.01e-4, 2e-4])
    expected = np.array([float(np.sin(v) / v) if v > 0 else 1.0 for v in x])
    np.testing.assert_allclose(sinc(x), expected, rtol=1e-15)
    assert sinc(np.array([0.0]))[0] == 1.0


def test_empty_schedule_value():
    empty = TimeSchedule(times=np.array([]))
    np.testing.assert_allclose(rsn_closed_form(BAND, empty),
                               2.0 * (1.0 - 0.1), rtol=1e-14)


def test_single_time_matches_direct_integral():
    t = 3.7
    sched = TimeSchedule(times=np.array([t]))
    got = rsn_closed_form(BAND, sched)
    # integral of 2 cos^2(E t / 2) over [dmin, dmax]
    exact = (1.0 - 0.1) + (math.sin(1.0 * t) - math.sin(0.1 * t)) / t
    np.testing.assert_allclose(got, exact, rtol=1e-12)


def test_band_sinc_sum_single_time():
    t = 2.0
    delta = 0.5
    sched = TimeSchedule(times=np.array([t]))
    got = band_sinc_sum(delta, sched)
    # unnormalized ternary weights: 2 at s=0 and 1 at s=+-1 per cycle;
    # the 4**N normalization happens in rsn_closed_form
    expected = 2 * delta * (2.0 + 2.0 * math.sin(delta * t) / (delta * t))
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    single = rsn_closed_form(BandModel(delta / 2, delta), TimeSchedule(times=np.array([t])))
    recon = (band_sinc_sum(delta, sched) - band_sinc_sum(delta / 2, sched)) / 4.0
    np.testing.assert_allclose(single, recon, rtol=1e-13)


def test_closed_form_matches_quadrature_random_schedules():
    rng = np.random.default_rng(42)
    band_q = _two_sided(BAND)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        times = rng.uniform(0.05, 30.0, size=n)
        sched = TimeSchedule(times=times)
        closed = rsn_closed_form(BAND, sched)
        quad = rsn_quadrature(band_q, 0.0, sched, abs_tol=1e-12)
        np.testing.assert_allclose(closed, quad, rtol=1e-9, atol=1e-13)


def test_batch_matches_scalar():
    rng = np.random.default_rng(3)
    times = rng.uniform(0.1, 20.0, size=(5, 9))
    batch = rsn_closed_form_batch(BAND, times)
    singles = [rsn_closed_form(BAND, TimeSchedule(times=times[:, j]))
               for j in range(9)]
    np.testing.assert_allclose(batch, singles, rtol=1e-13)


def test_enumeration_cap():
    sched = TimeSchedule(times=np.ones(MAX_ENUM_N + 1))
    with pytest.raises(ValueError):
        rsn_closed_form(BAND, sched)


def test_monotone_in_appended_time():
    # appending a cycle can only shrink the filtered weight
    rng = np.random.default_rng(8)
    times = list(rng.uniform(1.0, 10.0, size=3))
    prev = rsn_closed_form(BAND, TimeSchedule(times=np.array(times)))
    for extra in (2.0, 5.0, 11.0):
        times.append(extra)
        cur = rsn_closed_form(BAND, TimeSchedule(times=np.array(times)))
        assert cur <= prev + 1e-13
        prev = cur


def test_superiteration_limit_is_squared_sinc_integral():
    from rodeo_sched import integrate_oscillatory
    t1 = 40.0
    limit = superiteration_limit_rsn(BAND, t1)
    direct, _ = integrate_oscillatory(
        lambda e: 2.0 * (np.sin(e * t1) / (e * t1)) ** 2,
        0.1, 1.0, phase_rate=2 * t1, abs_tol=1e-13)
    np.testing.assert_allclose(limit, direct, rtol=1e-9)


def test_asymptotic_rsn_formula():
    t1 = 250.0
    expected = (1.0 / t1**2) * (1.0 / 0.1 - 1.0 / 1.0)
    np.testing.assert_allclose(asymptotic_rsn(BAND, t1), expected, rtol=1e-14)


def test_limit_approaches_asymptote():
    gaps = []
    for t1 in (150.0, 1500.0, 15000.0):
        lim = superiteration_limit_rsn(BAND, t1)
        asym = asymptotic_rsn(BAND, t1)
        gaps.append(abs(lim - asym) / asym)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_asymptotic_warns_outside_regime():
    with pytest.warns(UserWarning):
        asymptotic_rsn(BAND, 30.0)


def test_band_model_validation():
    with pytest.raises(ValueError):
        BandModel(0.0, 1.0)
    with pytest.raises(ValueError):
        BandModel(0.5, 0.5)


def _gauss_legendre_rsn(band, times, nodes=400):
    """Fixed-rule residual: 2 * integral over [delta_min, delta_max] of the
    filter product (the two-sided band folded onto one side)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (band.delta_max - band.delta_min)
    e = half * x + 0.5 * (band.delta_max + band.delta_min)
    product = np.prod(np.cos(0.5 * np.outer(times, e)) ** 2, axis=0)
    return 2.0 * half * float(w @ product)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8), st.floats(0.5, 3.0))
def test_closed_form_adaptive_and_fixed_rules_agree(shares, t0_multiple):
    # one panel per period of the top frequency must still meet the
    # criterion-3 agreement (1e-8 relative) at the default tolerance
    total = t0_multiple * math.pi / BAND.delta_min
    times = total * np.array(shares) / sum(shares)
    sched = TimeSchedule(times=times)
    closed = rsn_closed_form(BAND, sched)
    adaptive = rsn_quadrature(BAND.quadrature_twin(), 0.0, sched)
    fixed = _gauss_legendre_rsn(BAND, times)
    np.testing.assert_allclose(adaptive, closed, rtol=1e-8)
    np.testing.assert_allclose(fixed, closed, rtol=1e-8)
