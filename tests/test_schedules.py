"""Schedule containers, generators, rounding, and file round trips."""

import argparse
import json
import math
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rodeo_sched import (TimeSchedule, geometric_times, read_schedule,
                         superiteration_schedule, trotter_floor, trotter_round)
from rodeo_sched.cli import _emit, _write_csv
from rodeo_sched.schedules import (TIME_FLOOR, schedule_from_csv, schedule_from_json,
                                   trotter_steps)


def write_cli_csv(sched, path):
    """Write a schedule as ``optimize-times --out`` does in CSV."""
    rows = [[i, t] for i, t in enumerate(sched.times)]
    _write_csv(str(path), ["index", "time"], rows, {"hash": "0" * 64})


def write_cli_json(sched, path):
    """Write a schedule as ``optimize-times --out --format json`` does."""
    args = argparse.Namespace(_t_start=time.perf_counter(), out=str(path), format="json",
                              command="optimize-times")
    _emit(args, {"schedule": sched.times.tolist()})


def test_superiteration_sums_to_total():
    for alpha in (1.0, 1.3, 2.0, 3.7):
        sched = superiteration_schedule(alpha, 8, 25.0)
        assert len(sched) == 8
        np.testing.assert_allclose(sched.total_time, 25.0, rtol=1e-12)


def test_superiteration_geometric_ratio():
    sched = superiteration_schedule(1.7, 6, 10.0)
    ratios = sched.times[:-1] / sched.times[1:]
    np.testing.assert_allclose(ratios, 1.7, rtol=1e-10)


def test_superiteration_uniform_limit():
    # alpha -> 1 must approach the equal-split schedule continuously
    uniform = superiteration_schedule(1.0, 5, 10.0)
    np.testing.assert_allclose(uniform.times, 2.0, rtol=1e-12)
    near = superiteration_schedule(1.0 + 1e-12, 5, 10.0)
    np.testing.assert_allclose(near.times, uniform.times, rtol=1e-9)


def test_superiteration_validation():
    with pytest.raises(ValueError):
        superiteration_schedule(0.9, 5, 10.0)
    with pytest.raises(ValueError):
        superiteration_schedule(1.5, 0, 10.0)
    with pytest.raises(ValueError):
        superiteration_schedule(1.5, 5, -1.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1.0, 3.0), min_size=1, max_size=8),
       st.integers(1, 300), st.floats(1e-3, 1e4))
def test_geometric_columns_are_superiteration_schedules_bit_for_bit(alphas, n, total):
    alphas = [1.0] + alphas
    grid = geometric_times(alphas, n, total)
    assert grid.shape == (n, len(alphas))
    for j, a in enumerate(alphas):
        np.testing.assert_array_equal(superiteration_schedule(a, n, total).times,
                                      grid[:, j])
    # total times broadcast against one ratio the same way
    totals = np.linspace(0.5, 2.0, 3) * total
    by_time = geometric_times(alphas[-1], n, totals)
    for j, t in enumerate(totals):
        np.testing.assert_array_equal(superiteration_schedule(alphas[-1], n, t).times,
                                      by_time[:, j])


def _scalar_geometric_column(alpha, n, total):
    """One geometric schedule from scalar arithmetic, column by column."""
    if alpha == 1.0:
        return np.full(n, total / n)
    log_a = math.log(alpha)
    t1 = total * (-math.expm1(-log_a)) / (-math.expm1(-n * log_a))
    return t1 * alpha ** -np.arange(n)


# alpha = 1 or 1 + 10**e, alpha - 1 from 1e-9 to 3
RATIOS = st.one_of(st.just(1.0), st.floats(-9.0, math.log10(3.0)).map(lambda e: 1.0 + 10 ** e))


@settings(max_examples=150, deadline=None)
@given(st.lists(RATIOS, min_size=1, max_size=12), st.integers(1, 1200), st.floats(1e-3, 1e4))
@example([1.0, 1.0 + 1e-9, 4.0], 1200, 37.5)
def test_geometric_times_match_a_scalar_reference_bit_for_bit(alphas, n, total):
    grid = geometric_times(alphas, n, total)
    assert grid.flags.c_contiguous
    for j, a in enumerate(alphas):
        np.testing.assert_array_equal(grid[:, j], _scalar_geometric_column(a, n, total))
    totals = total * np.linspace(0.5, 2.0, len(alphas))
    by_time = geometric_times(alphas, n, totals)
    for j, (a, t) in enumerate(zip(alphas, totals.tolist())):
        np.testing.assert_array_equal(by_time[:, j], _scalar_geometric_column(a, n, t))


def test_geometric_times_validation():
    with pytest.raises(ValueError):
        geometric_times([1.2, 0.9], 5, 10.0)
    with pytest.raises(ValueError):
        geometric_times(1.2, 5, [10.0, 0.0])


def test_trotter_round_floors_to_grid():
    sched = TimeSchedule(times=np.array([0.4, 1.26, 2.0, 0.04]))
    rounded = trotter_round(sched, 0.5)
    np.testing.assert_allclose(rounded.times, [1.0, 2.0])


def test_trotter_round_boundary_guard():
    # an exact multiple (up to roundoff) must not slip down one step
    sched = TimeSchedule(times=np.array([1.5, 1.5 - 1e-13, 1.4999]))
    rounded = trotter_round(sched, 0.5)
    np.testing.assert_allclose(rounded.times, [1.5, 1.5, 1.0])


def test_trotter_round_drops_zeros_and_validates():
    sched = TimeSchedule(times=np.array([0.1, 0.2]))
    assert len(trotter_round(sched, 1.0)) == 0
    with pytest.raises(ValueError):
        trotter_round(sched, 0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 50.0), min_size=0, max_size=20),
       st.floats(1e-3, 5.0))
def test_trotter_round_properties(times, dt):
    sched = TimeSchedule(times=np.array(times))
    once = trotter_round(sched, dt)
    floored = trotter_floor(sched.times, dt)
    assert floored.shape == sched.times.shape
    np.testing.assert_array_equal(once.times, floored[floored > 0])
    np.testing.assert_array_equal(trotter_round(once, dt).times, once.times)
    # never increases a time (beyond the guard that keeps exact multiples)
    assert np.all(floored <= sched.times + 1e-9 * dt)


def test_trotter_floor_keeps_matrix_shape_and_zeros():
    tm = np.array([[0.4, 1.26], [2.0, 0.04]])
    np.testing.assert_allclose(trotter_floor(tm, 0.5), [[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        trotter_floor(tm, 0.0)


def _trotter_floor_reference(times, dt):
    """trotter_floor as one expression, before it ran in place."""
    t = np.asarray(times, dtype=float)
    mult = np.floor(t / dt)
    mult = np.where(t - (mult + 1.0) * dt > -1e-9 * dt, mult + 1.0, mult)
    return mult * dt


@st.composite
def _floor_cases(draw):
    """(times, dt): an (N, S) matrix of zeros, exact multiples of dt, times
    within 1e-10 dt below a multiple, and other times."""
    dt = draw(st.floats(1e-3, 5.0))
    steps = st.integers(1, 5000)
    entry = st.one_of(
        st.sampled_from([0.0, -0.0]),
        steps.map(lambda k: k * dt),
        st.tuples(steps, st.floats(0.0, 1e-10)).map(lambda c: c[0] * dt - c[1] * dt),
        st.floats(0.0, 100.0))
    n, s = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    return np.array(draw(st.lists(entry, min_size=n * s, max_size=n * s))).reshape(n, s), dt


@settings(max_examples=150, deadline=None)
@given(_floor_cases())
def test_trotter_floor_matches_its_one_expression_bit_for_bit(case):
    times, dt = case
    before = times.copy()
    floored = trotter_floor(times, dt)
    assert floored.shape == times.shape and not np.shares_memory(floored, times)
    assert floored.tobytes() == _trotter_floor_reference(times, dt).tobytes()
    assert times.tobytes() == before.tobytes()
    assert trotter_floor(times.T, dt).tobytes() == _trotter_floor_reference(times.T, dt).tobytes()
    # The steps are the floor without its multiply: integers, whose product
    # with dt has trotter_floor's bits (-0.0 included), in either layout.
    for t in (times, times.T):
        steps = trotter_steps(t, dt)
        assert np.array_equal(steps, np.floor(steps))
        assert (steps * dt).tobytes() == _trotter_floor_reference(t, dt).tobytes()
    assert times.tobytes() == before.tobytes()


def test_canonical_applies_floor():
    sched = TimeSchedule(times=np.array([3.0, TIME_FLOOR / 10, 1.0]))
    kept = sched.canonical()
    np.testing.assert_allclose(kept.times, [3.0, 1.0])


def test_csv_round_trip(tmp_path):
    sched = TimeSchedule(times=np.array([0.1234567890123456, 7.5, 1e-5]))
    path = tmp_path / "sched.csv"
    write_cli_csv(sched, path)
    back = schedule_from_csv(path)
    np.testing.assert_array_equal(back.times, sched.times)


def test_json_round_trip_and_dispatch(tmp_path):
    sched = TimeSchedule(times=np.array([2.0, 4.0, 8.0]))
    jpath = tmp_path / "sched.json"
    write_cli_json(sched, jpath)
    assert json.loads(jpath.read_text())["result"]["schedule"] == [2.0, 4.0, 8.0]
    np.testing.assert_array_equal(schedule_from_json(jpath).times, sched.times)
    np.testing.assert_array_equal(read_schedule(jpath).times, sched.times)
    # a bare array of times reads too; a document without result.schedule does not
    jpath.write_text("[2.0, 4.0, 8.0]\n")
    np.testing.assert_array_equal(schedule_from_json(jpath).times, sched.times)
    jpath.write_text('{"result": {"zeta": 0.1}}\n')
    with pytest.raises(ValueError, match="result.schedule"):
        schedule_from_json(jpath)
    cpath = tmp_path / "sched.csv"
    write_cli_csv(sched, cpath)
    np.testing.assert_array_equal(read_schedule(cpath).times, sched.times)


# Zero (both signs), subnormals, 17-significant-digit values and the
# largest double, next to arbitrary nonnegative doubles.
edge_times_st = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                                 0.30000000000000004, 0.042857142857142864,
                                 1.7976931348623157e308])
times_lists_st = st.lists(st.one_of(edge_times_st, st.floats(0.0, 1e300)), max_size=20)
DOUBLE_MAX = Fraction(sys.float_info.max)


def _float_total_is_finite(times) -> bool:
    """Whether the float sum stays finite, as TimeSchedule requires."""
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.array(times, dtype=float).sum()))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(times_lists_st.filter(_float_total_is_finite))
@example([1.7976931348623157e308])
@example([0.0, 1.7976931348623157e308, -0.0])
def test_schedule_files_round_trip_bit_exactly(times):
    sched = TimeSchedule(times=np.array(times, dtype=float))
    with tempfile.TemporaryDirectory() as tmp:
        cpath, jpath = Path(tmp) / "s.csv", Path(tmp) / "s.json"
        write_cli_csv(sched, cpath)
        write_cli_json(sched, jpath)
        assert _same_bits(schedule_from_csv(cpath).times, sched.times)
        assert _same_bits(schedule_from_json(jpath).times, sched.times)


@settings(max_examples=200, deadline=None)
@given(times_lists_st)
@example([1.7e308, 1.7e308])
def test_schedule_total_is_finite_or_rejected(times):
    # Up to 20 roundings move a float sum by far less than 1e-12 relative.
    exact = sum(map(Fraction, times), Fraction(0))
    margin = DOUBLE_MAX * Fraction(1, 10 ** 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if exact > DOUBLE_MAX + margin:
            with pytest.raises(ValueError, match="total time"):
                TimeSchedule(times=np.array(times))
        elif exact < DOUBLE_MAX - margin:
            total = TimeSchedule(times=np.array(times)).total_time
            assert math.isfinite(total)
            assert abs(Fraction(total) - exact) <= exact * Fraction(1, 10 ** 12)


def test_negative_times_rejected():
    with pytest.raises(ValueError):
        TimeSchedule(times=np.array([1.0, -0.5]))


def test_csv_reader_takes_time_column_headers(tmp_path):
    path = tmp_path / "sched.csv"
    path.write_text("time\n3.0\n1.5\n")
    np.testing.assert_array_equal(schedule_from_csv(path).times, [3.0, 1.5])
    path.write_text("# manifest_hash=abc\nindex,time\n0,2.5\n1,0.25\n")
    np.testing.assert_array_equal(schedule_from_csv(path).times, [2.5, 0.25])
    path.write_text("index,time\n0,2.5\n1\n")
    with pytest.raises(ValueError, match="line 3"):
        schedule_from_csv(path)
    path.write_text("1.0\ntime\n")
    with pytest.raises(ValueError, match="line 2"):
        schedule_from_csv(path)
