"""Spectral containers and the quadrature route to the residual weight."""

import csv
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rodeo_sched import (BandModel, ContinuousBand, DiscreteSpectrum, TimeSchedule,
                         band_from_json, geometric_times, load_spectrum_csv,
                         rsn_quadrature, rsn_quadrature_batch,
                         superiteration_schedule, survival_product, trotter_floor,
                         trotter_round)
from rodeo_sched.cli import PRESETS
from rodeo_sched.quadrature import ABS_TOL, _integrate
from rodeo_sched.spectral import TARGET_RTOL, log_survival, target_mask

# (band, target energy, T0) of the band searches: the closed form's
# quadrature twin and the schedule-fit presets.
SEARCH_BANDS = {"twin": (BandModel(0.1, 1.0).quadrature_twin(), 0.0, math.pi / 0.1),
                "xi1": (PRESETS["xi1"](), -1.0, math.pi),
                "xi2": (PRESETS["xi2"](), -1.0, math.pi)}


def save_spectrum_csv(spectrum, path):
    """Write energy,weight rows with a header, as load_spectrum_csv reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["energy", "weight"])
        for e, w in zip(spectrum.energies, spectrum.weights):
            writer.writerow([repr(float(e)), repr(float(w))])


def test_success_probability_on_target_is_one():
    sched = TimeSchedule(times=np.array([13.2, 0.4]))
    assert survival_product(np.array([0.7]), 0.7, sched)[0] == 1.0


def test_success_probability_half_period_zero():
    # a cycle of length pi/delta fully rejects a level at distance delta
    delta = 0.8
    sched = TimeSchedule(times=np.array([math.pi / delta]))
    assert survival_product(np.array([delta]), 0.0, sched)[0] < 1e-30


def test_survival_product_is_cycle_product():
    energies = np.array([0.5, 1.5, -2.0])
    sched = TimeSchedule(times=np.array([1.0, 2.5]))
    got = survival_product(energies, 0.0, sched)
    expected = np.prod(
        [np.cos(energies * t / 2.0) ** 2 for t in sched.times], axis=0)
    np.testing.assert_allclose(got, expected, rtol=1e-14)


def test_discrete_rsn_excludes_target():
    spectrum = DiscreteSpectrum(energies=np.array([0.0, 0.4, 1.1]),
                                weights=np.array([0.5, 0.3, 0.2]))
    sched = TimeSchedule(times=np.array([1.7]))
    zeta = rsn_quadrature(spectrum, 0.0, sched)
    expected = (0.3 * math.cos(0.4 * 1.7 / 2) ** 2
                + 0.2 * math.cos(1.1 * 1.7 / 2) ** 2)
    np.testing.assert_allclose(zeta, expected, rtol=1e-13)


def test_discrete_rsn_empty_schedule_is_nontarget_weight():
    spectrum = DiscreteSpectrum(energies=np.array([0.0, 1.0]),
                                weights=np.array([0.25, 0.75]))
    zeta = rsn_quadrature(spectrum, 0.0, TimeSchedule(times=np.array([])))
    np.testing.assert_allclose(zeta, 0.75, rtol=1e-14)


def test_band_normalization_and_weight():
    band = ContinuousBand(0.0, 1.0, density="constant")
    np.testing.assert_allclose(band.total_weight(), 1.0, rtol=1e-10)
    gauss = ContinuousBand(0.0, 1.0, density="gaussian")
    np.testing.assert_allclose(gauss.total_weight(), 1.0, rtol=1e-8)
    raw = ContinuousBand(0.1, 1.0, np.array([[0.1, 2.0], [1.0, 2.0]]),
                         normalize=False)
    np.testing.assert_allclose(raw.total_weight(), 1.8, rtol=1e-10)


def test_band_rsn_empty_schedule_is_total_weight():
    band = ContinuousBand(0.2, 1.0, density="constant")
    zeta = rsn_quadrature(band, 0.0, TimeSchedule(times=np.array([])))
    np.testing.assert_allclose(zeta, band.total_weight(), rtol=1e-10)


def test_band_rsn_single_time_analytic():
    # flat unit band on [a, b]: integral of cos^2((E - e_t) t / 2) dE / (b - a)
    a, b, t = 0.3, 1.1, 4.0
    band = ContinuousBand(a, b, density="constant")
    zeta = rsn_quadrature(band, 0.0, TimeSchedule(times=np.array([t])))
    exact = 0.5 + (math.sin(b * t) - math.sin(a * t)) / (2 * t * (b - a))
    np.testing.assert_allclose(zeta, exact, rtol=1e-10)


def test_band_rejects_interior_target():
    band = ContinuousBand(0.2, 1.0, density="constant")
    sched = TimeSchedule(times=np.array([1.0]))
    for bad in (0.5, 0.2, 1.0):
        with pytest.raises(ValueError):
            rsn_quadrature(band, bad, sched)
    assert rsn_quadrature(band, -0.1, sched) > 0


def test_spectrum_csv_round_trip(tmp_path):
    spectrum = DiscreteSpectrum(energies=np.array([-1.0, 0.25, 3.5]),
                                weights=np.array([0.1, 0.6, 0.3]))
    path = tmp_path / "spec.csv"
    save_spectrum_csv(spectrum, path)
    back = load_spectrum_csv(path)
    np.testing.assert_array_equal(back.energies, spectrum.energies)
    np.testing.assert_array_equal(back.weights, spectrum.weights)


# Zero (both signs), subnormals and 17-significant-digit values next to
# arbitrary doubles; sixteen weights of at most 1/16 sum to at most 1.
energies_st = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 0.30000000000000004, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
weights_st = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 0.042857142857142864, 0.05000000000000001]),
    st.floats(0.0, 1.0 / 16))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(energies_st, weights_st), max_size=16))
def test_spectrum_csv_round_trips_bit_exactly(rows):
    energies = np.array([e for e, _ in rows], dtype=float)
    weights = np.array([w for _, w in rows], dtype=float)
    spectrum = DiscreteSpectrum(energies, weights)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.csv"
        save_spectrum_csv(spectrum, path)
        back = load_spectrum_csv(path)
    for got, want in ((back.energies, energies), (back.weights, weights)):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_band_from_json(tmp_path):
    path = tmp_path / "band.json"
    path.write_text('{"delta_min": 0.1, "delta_max": 0.9, "density": "constant"}')
    band = band_from_json(path)
    assert band.delta_min == 0.1
    assert band.delta_max == 0.9
    np.testing.assert_allclose(band.total_weight(), 1.0, rtol=1e-10)


def test_quadrature_matches_dense_discrete_sampling():
    # a finely sampled tabulated band behaves like its discrete counterpart
    grid = np.linspace(0.2, 1.0, 4001)
    density = 1.0 + 0.5 * np.sin(3.0 * grid)
    band = ContinuousBand(0.2, 1.0, np.column_stack([grid, density]),
                          normalize=True)
    sched = superiteration_schedule(1.5, 4, 12.0)
    zeta_band = rsn_quadrature(band, 0.0, sched)
    w = density / np.trapezoid(density, grid)
    survivors = survival_product(grid, 0.0, sched)
    zeta_sum = np.trapezoid(w * survivors, grid)
    np.testing.assert_allclose(zeta_band, zeta_sum, rtol=1e-6)


def _assert_batch_matches_columns(spectrum, e_target, times, schedules, abs_tol=1e-10):
    # Columns share panels, so they agree to the quadrature error, which
    # sits far below the tolerance on smooth integrands.
    batch = rsn_quadrature_batch(spectrum, e_target, times, abs_tol=abs_tol)
    assert batch.shape == (times.shape[1],)
    scalar = [rsn_quadrature(spectrum, e_target, sched, abs_tol=abs_tol)
              for sched in schedules]
    np.testing.assert_allclose(batch, scalar, rtol=1e-13, atol=0.0)


def test_batch_matches_scalar_on_zero_padded_trotter_columns():
    band = ContinuousBand(0.0, 1.0, density="constant")
    alphas = np.concatenate([[1.0], 1.0 + np.geomspace(1e-3, 1.0, 15)])
    for total, dt in ((0.3 * math.pi, 0.01 * math.pi), (8.0 * math.pi, 0.05 * math.pi)):
        times = trotter_floor(geometric_times(alphas, 100, total), dt)
        assert np.any(times == 0.0)
        schedules = [trotter_round(superiteration_schedule(a, 100, total), dt)
                     for a in alphas]
        _assert_batch_matches_columns(band, -1.0, times, schedules)


def test_batch_matches_scalar_on_discrete_spectrum():
    spec = DiscreteSpectrum(energies=np.array([0.0, 0.3, 0.3, 0.9, 2.5]),
                            weights=np.array([0.4, 0.1, 0.2, 0.2, 0.1]))
    times = geometric_times(np.array([1.0, 1.3, 2.0]), 12, np.array([4.0, 9.0, 30.0]))
    times[-3:, 0] = 0.0
    schedules = [TimeSchedule(times=col) for col in times.T]
    _assert_batch_matches_columns(spec, 0.0, times, schedules)


def test_batch_matches_scalar_on_tabulated_band():
    table = np.array([[0.2, 0.5], [0.6, 2.0], [1.1, 1.0], [1.5, 0.1]])
    band = ContinuousBand(0.2, 1.5, table)
    times = geometric_times(1.0 + np.geomspace(1e-2, 1.5, 9), 30, 25.0)
    schedules = [TimeSchedule(times=col) for col in times.T]
    # the density's kinks converge slowly, so the tolerance is tightened
    _assert_batch_matches_columns(band, 0.0, times, schedules, abs_tol=1e-14)


def test_batch_rejects_target_inside_band():
    with pytest.raises(ValueError):
        rsn_quadrature_batch(ContinuousBand(0.0, 1.0), 0.5, np.ones((3, 2)))


@pytest.mark.parametrize("spectrum", [
    ContinuousBand(0.1, 1.0),
    DiscreteSpectrum(energies=np.array([0.0, 0.4, 0.9]), weights=np.array([0.5, 0.3, 0.2])),
], ids=["band", "discrete"])
def test_batch_of_no_schedules_is_empty(spectrum):
    got = rsn_quadrature_batch(spectrum, 0.0, np.zeros((3, 0)))
    assert got.shape == (0,)


def test_levels_merge_near_duplicates_at_their_weighted_mean():
    # scale max(1, |E_t|, max |E|) = 1.2, so energies within 1.2e-10 are one level
    e = np.array([0.0, 0.5 + 3e-11, 0.9, 0.5, 1.2, 0.5 - 2e-11, 0.9 + 5e-10])
    w = np.array([0.3, 0.1, 0.05, 0.2, 0.1, 0.15, 0.1])
    (target_d, target_log_w), (d, log_w), dropped = DiscreteSpectrum(e, w).levels(0.0)
    assert dropped == 0
    np.testing.assert_array_equal(target_d, [0.0])
    np.testing.assert_allclose(np.exp(target_log_w), [0.3], rtol=1e-15)
    near = np.array([1, 3, 5])
    np.testing.assert_allclose(d, [e[near] @ w[near] / w[near].sum(), 0.9, 0.9 + 5e-10, 1.2],
                               rtol=1e-15)
    np.testing.assert_allclose(np.exp(log_w), [0.45, 0.05, 0.1, 0.1], rtol=1e-15)
    np.testing.assert_allclose(np.exp(log_w).sum() + np.exp(target_log_w).sum(), w.sum(),
                               rtol=1e-15)


def test_levels_drop_weights_at_or_below_the_floor():
    spectrum = DiscreteSpectrum(np.array([0.0, 0.0, 0.4, 0.7, 0.8]),
                                np.array([0.0, 0.0, 0.2, 0.0, 1e-3]))
    target, rest, dropped = spectrum.levels(0.0)
    assert len(target[0]) == 0 and dropped == 2  # the zero-weight target pair and 0.7
    np.testing.assert_allclose(rest[0], [0.4, 0.8], rtol=1e-15)
    _, rest, dropped = spectrum.levels(0.0, floor=1e-3)
    assert dropped == 3
    np.testing.assert_allclose(rest[0], [0.4], rtol=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SEARCH_BANDS)), st.floats(1.0, 3.0), st.integers(1, 120),
       st.floats(0.5, 100.0), st.one_of(st.none(), st.floats(0.005, 0.5)))
def test_a_one_column_band_call_equals_the_chunked_path(band, alpha, n, t_mult, dt_mult):
    # rsn_quadrature_batch sends one column through integrate_oscillatory as
    # a scalar integral, which is _integrate's rule on a (P, 1) integrand.
    spectrum, e_target, t0 = SEARCH_BANDS[band]
    tm = geometric_times(alpha, n, t_mult * t0)
    if dt_mult is not None:
        tm = trotter_floor(tm, dt_mult * t0)

    def integrand(e):
        return spectrum.density_values(e)[:, None] * np.exp(log_survival(e - e_target, tm))

    chunked, _ = _integrate(integrand, spectrum.delta_min, spectrum.delta_max,
                            float(tm.sum()), ABS_TOL)
    assert rsn_quadrature_batch(spectrum, e_target, tm).tobytes() == chunked.tobytes()


# Every kind of spectrum rsn_quadrature_batch integrates or sums.
COLUMN_SPECTRA = dict(
    SEARCH_BANDS,
    constant=(ContinuousBand(0.1, 1.0), 0.0, math.pi / 0.1),
    levels=(DiscreteSpectrum(np.array([0.0, 0.3, 0.7, 1.1]), np.array([0.2, 0.3, 0.3, 0.2])),
            0.0, math.pi / 0.3))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(COLUMN_SPECTRA)), st.sampled_from([2, 11, 60, 240]),
       st.integers(1, 100), st.floats(0.1, 100.0), st.one_of(st.none(), st.floats(0.005, 0.5)),
       st.sampled_from([ABS_TOL, 1e-13]), st.randoms(use_true_random=False))
@example("twin", 11, 10, 10.0, None, 1e-13, random.Random(0))   # columns refine
@example("xi2", 240, 100, 3.0, 0.01, ABS_TOL, random.Random(0))  # a Trotter ratio grid
def test_every_batch_column_is_the_bits_of_its_one_column_call(name, width, n, t_mult,
                                                               dt_mult, abs_tol, rnd):
    # Widths, cycles and totals straddle the kernel's block, series and
    # pool thresholds and the integrator's chunks; the column totals span
    # a decade, so columns start from different panel counts.
    spectrum, e_target, t0 = COLUMN_SPECTRA[name]
    totals = np.geomspace(0.1, 1.0, width) * t_mult * t0
    tm = geometric_times(1.0 + np.geomspace(1e-4, 1.0, width)[::-1], n, totals)
    if dt_mult is not None:
        tm = trotter_floor(tm, dt_mult * t0)
    batch = rsn_quadrature_batch(spectrum, e_target, tm, abs_tol=abs_tol)
    for j in rnd.sample(range(width), 2):
        alone = rsn_quadrature_batch(spectrum, e_target, tm[:, [j]], abs_tol=abs_tol)
        assert alone.tobytes() == batch[j:j + 1].tobytes()


def test_refined_columns_keep_their_one_column_bits(monkeypatch):
    # At abs_tol 1e-13 some of these columns refine, on panels of their
    # own; columns that split the same panels share one integrand call.
    from rodeo_sched import quadrature

    twin, _, t0 = SEARCH_BANDS["twin"]
    tm = geometric_times(1.0 + np.geomspace(1e-4, 1.0, 11), 10, 3.3 * t0)
    calls, real = [], quadrature._eval_panels

    def spy(func, lo, hi, cols):
        calls.append(len(cols))
        return real(func, lo, hi, cols)

    monkeypatch.setattr(quadrature, "_eval_panels", spy)
    batch = rsn_quadrature_batch(twin, 0.0, tm, abs_tol=1e-13)
    assert calls[0] == 11 and 1 < len(calls) and max(calls[1:]) > 1
    monkeypatch.setattr(quadrature, "_eval_panels", real)
    assert batch.tolist() == [rsn_quadrature_batch(twin, 0.0, tm[:, [j]], abs_tol=1e-13)[0]
                              for j in range(11)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(1e-6, 1.0)), max_size=12,
                unique_by=lambda level: level[0]),
       st.floats(-5.0, 5.0))
def test_levels_that_no_energy_joins_keep_their_offsets_bit_for_bit(levels, e_target):
    e = np.array([x for x, _ in levels])
    w = np.array([x for _, x in levels])
    if w.sum() > 1.0:
        w /= w.sum()
    tol = TARGET_RTOL * max(1.0, abs(e_target), float(np.max(np.abs(e), initial=0.0)))
    assume(np.all(np.diff(np.sort(e)) > tol))
    target, rest, dropped = DiscreteSpectrum(e, w).levels(e_target)
    assert dropped == 0
    mask = target_mask(e, e_target)
    for (offsets, log_w), part in ((target, mask), (rest, ~mask)):
        order = np.argsort(e[part] - e_target)
        np.testing.assert_array_equal(offsets, (e[part] - e_target)[order])
        np.testing.assert_array_equal(log_w, np.log(w[part][order]))


def test_a_lone_level_survives_as_its_direct_product():
    # (d w) / w would place this level at 1.9199999999999997, near a zero of
    # cos at this cycle, 1.1e-11 relative off the direct product.
    spectrum = DiscreteSpectrum(np.array([1.92]), np.array([0.6875]))
    np.testing.assert_array_equal(spectrum.levels(0.0)[1][0], [1.92])
    got = rsn_quadrature(spectrum, 0.0, TimeSchedule(times=np.array([14.7265625])))
    np.testing.assert_allclose(got, 0.6875 * math.cos(0.96 * 14.7265625) ** 2, rtol=1e-14)


@pytest.mark.parametrize("spectrum", [
    DiscreteSpectrum(np.array([]), np.array([])),
    DiscreteSpectrum(np.array([0.3, 0.3 + 1e-12, 0.3]), np.array([0.5, 0.2, 0.3])),
], ids=["empty", "all-target"])
def test_a_spectrum_without_levels_off_the_target_leaves_no_residual(spectrum):
    _, rest, dropped = spectrum.levels(0.3)
    assert len(rest[0]) == len(rest[1]) == dropped == 0
    times = geometric_times(np.array([1.0, 1.5, 2.0]), 8, np.array([1.0, 10.0, 100.0]))
    np.testing.assert_array_equal(rsn_quadrature_batch(spectrum, 0.3, times), [0.0] * 3)
