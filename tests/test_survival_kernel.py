"""The log-space survival kernel and the residuals built on it."""

import math
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rodeo_sched import (DiscreteSpectrum, HamiltonianSpec, RodeoObjective,
                         TimeSchedule, build_sector_hamiltonian, eigendecompose,
                         make_initial_state, minimum_gap, product_function,
                         rsn_quadrature, superiteration_schedule, spectral)
from rodeo_sched.schedules import TIME_FLOOR
from rodeo_sched.spectral import (KERNEL_BLOCK_DOUBLES, PARALLEL_MIN_PHASES, log_survival,
                                  log_surviving)

deltas_st = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6)
times_st = st.lists(st.floats(0.0, 40.0), min_size=0, max_size=12)


def _spectrum(offsets, weights):
    w = np.asarray(weights)
    return DiscreteSpectrum(energies=np.concatenate([[0.0], offsets]),
                            weights=np.concatenate([[0.2], 0.8 * w / w.sum()]))


spectra_st = st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.lists(st.floats(0.05, 3.0), min_size=k, max_size=k),
    st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))


@settings(max_examples=200, deadline=None)
@given(deltas_st, st.lists(times_st, min_size=1, max_size=4).map(
    lambda cols: [c + [0.0] * (12 - len(c)) for c in cols]))
def test_kernel_matches_linear_product(deltas, columns):
    d = np.array(deltas)
    tm = np.array(columns).T
    direct = np.prod(np.cos(0.5 * d[None, :, None] * tm[:, None, :]) ** 2, axis=0)
    got = np.exp(log_survival(d, tm))
    representable = direct > 1e-300
    np.testing.assert_allclose(got[representable], direct[representable], rtol=1e-12)


def _xx_chain(length):
    spec = HamiltonianSpec(model="xx", length=length)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    return spec, eig, make_initial_state(spec, "basis_index", basis_index=1)


def _tfim_chain(length):
    spec = HamiltonianSpec(model="tfim", length=length, field=1.0)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    return spec, eig, make_initial_state(spec, "plus_projected")


def test_merged_levels_equal_unmerged_sum():
    # the plus state of the TFIM sees many degenerate momentum pairs
    for build in (_xx_chain, _tfim_chain):
        _, eig, psi = build(8)
        e0 = float(eig.eigenvalues[0])
        obj = RodeoObjective(eig, psi, e0)
        w = (eig.eigenvectors.T @ psi.vector) ** 2
        d = eig.eigenvalues - e0
        t0 = math.pi / minimum_gap(eig)
        columns = [superiteration_schedule(a, 20, m * t0).times
                   for a, m in ((2.0, 0.5), (1.5, 2.0), (1.1, 6.0))]
        tm = np.array(columns).T
        surv = w[:, None] * np.prod(np.cos(0.5 * d[None, :, None] * tm[:, None, :]) ** 2,
                                    axis=0)
        ref = surv[1:].sum(axis=0) / surv.sum(axis=0)
        batch = obj.batch(tm)
        np.testing.assert_allclose(batch, ref, rtol=1e-9)
        for j, col in enumerate(columns):
            np.testing.assert_allclose(obj.value(col), batch[j], rtol=1e-14)
            res = obj.result(TimeSchedule(times=col))
            np.testing.assert_allclose(res.zeta, surv[1:, j].sum(), rtol=1e-9)
            np.testing.assert_allclose(res.target_weight, surv[0, j], rtol=1e-12)


@settings(max_examples=150, deadline=None)
@given(spectra_st, times_st)
def test_residual_lies_between_zero_and_initial_weight(spectrum_args, times):
    spectrum = _spectrum(*spectrum_args)
    zeta = rsn_quadrature(spectrum, 0.0, TimeSchedule(times=np.array(times)))
    assert 0.0 <= zeta <= spectrum.weights[1:].sum() * (1 + 1e-12)


@settings(max_examples=150, deadline=None)
@given(spectra_st, times_st, st.floats(0.0, 40.0))
def test_appending_a_cycle_never_raises_the_residual(spectrum_args, times, extra):
    spectrum = _spectrum(*spectrum_args)
    before = rsn_quadrature(spectrum, 0.0, TimeSchedule(times=np.array(times)))
    after = rsn_quadrature(spectrum, 0.0, TimeSchedule(times=np.array(times + [extra])))
    assert after <= before * (1 + 1e-12)


@settings(max_examples=150, deadline=None)
@given(spectra_st, times_st,
       st.lists(st.floats(0.0, TIME_FLOOR, exclude_max=True), min_size=1, max_size=5))
def test_times_below_the_floor_move_the_residual_by_at_most_their_factor(
        spectrum_args, times, tiny):
    # Each appended time t < TIME_FLOOR scales every level's weight by
    # cos^2(delta t / 2), which lies in [cos^2(delta_max TIME_FLOOR / 2), 1].
    spectrum = _spectrum(*spectrum_args)
    before = rsn_quadrature(spectrum, 0.0, TimeSchedule(times=np.array(times)))
    after = rsn_quadrature(spectrum, 0.0, TimeSchedule(times=np.array(times + tiny)))
    delta_max = float(spectrum.energies.max())
    factor = math.cos(0.5 * delta_max * TIME_FLOOR) ** (2 * len(tiny))
    assert before * (factor - 1e-12) <= after <= before * (1 + 1e-12)


@settings(max_examples=150, deadline=None)
@given(spectra_st, times_st, st.randoms(use_true_random=False))
def test_residual_ignores_the_order_of_times(spectrum_args, times, rnd):
    spectrum = _spectrum(*spectrum_args)
    shuffled = list(times)
    rnd.shuffle(shuffled)
    a = rsn_quadrature(spectrum, 0.0, TimeSchedule(times=np.array(times)))
    b = rsn_quadrature(spectrum, 0.0, TimeSchedule(times=np.array(shuffled)))
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-300)


def test_long_schedule_infidelity_stays_finite_below_the_double_range():
    # XX chain, L = 10, e1 state, N = 1000, T = 1000 T0, alpha = 1.001:
    # the true infidelity is about 1e-418.9, far below the smallest double
    _, eig, psi = _xx_chain(10)
    e0 = float(eig.eigenvalues[0])
    times = superiteration_schedule(
        1.001, 1000, 1000 * math.pi / minimum_gap(eig, e0)).times
    w = (eig.eigenvectors.T @ psi.vector) ** 2
    d = eig.eigenvalues - e0
    keep = w > 0
    d, log_w = d[keep], np.log(w[keep])
    target = np.abs(d) < 1e-9
    tm = times[:, None]
    log_zeta = log_surviving(d[~target], log_w[~target], tm)[0]
    log_target = log_surviving(d[target], log_w[target], tm)[0]
    log10_kernel = (log_zeta - np.logaddexp(log_zeta, log_target)) / math.log(10)

    s = np.sin(0.5 * d[:, None] * times[None, :])
    per_level = log_w + np.log1p(-s * s).sum(axis=1)
    ref_zeta = np.logaddexp.reduce(per_level[~target])
    ref_target = np.logaddexp.reduce(per_level[target])
    log10_ref = (ref_zeta - np.logaddexp(ref_zeta, ref_target)) / math.log(10)

    assert math.isfinite(log10_kernel)
    assert abs(log10_kernel - (-418.9)) < 0.05
    assert abs(log10_kernel - log10_ref) < 1e-6
    obj = RodeoObjective(eig, psi, e0)
    assert obj.value(times) == 0.0  # a double reads 0.0 below ~1e-308


def test_kernel_memory_stays_blocked():
    rng = np.random.default_rng(0)
    deltas = rng.uniform(-5.0, 5.0, 1000)
    tm = rng.uniform(0.0, 3.0, (1000, 20))
    tracemalloc.start()
    try:
        out = log_survival(deltas, tm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1000, 20)
    assert peak < 32 * 2 ** 20


def test_kernel_memory_has_no_plane_sized_temporary():
    # 65,000 levels x 1 schedule: one cycle per block; the block sum of a
    # one-cycle block is the block itself, so nothing beyond the result,
    # the level offsets and one block of phases is held at once.
    rng = np.random.default_rng(0)
    deltas = rng.uniform(-5.0, 5.0, 65_000)
    tm = rng.uniform(0.0, 3.0, (71, 1))
    tracemalloc.start()
    try:
        out = log_survival(deltas, tm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (65_000, 1)
    assert peak < 3.5 * out.nbytes


@contextmanager
def _kernel_workers(workers):
    """Run the kernel with a given worker count (1: serial)."""
    saved = spectral._pool
    executor = ThreadPoolExecutor(workers) if workers > 1 else None
    spectral._pool = (os.getpid(), workers, executor)
    try:
        yield
    finally:
        spectral._pool = saved
        if executor is not None:
            executor.shutdown()


def _blocked_reference(deltas, times):
    """The kernel's arithmetic without tiles: blocks of step cycles over
    the whole plane, each summed over its cycles, then added in order."""
    half = 0.5 * deltas
    out = np.zeros((half.size, times.shape[1]))
    step = max(1, KERNEL_BLOCK_DOUBLES // max(1, out.size))
    for start in range(0, times.shape[0], step):
        phase = half[None, :, None] * times[start:start + step, None, :]
        out += np.log(np.abs(np.cos(phase))).sum(axis=0)
    return 2.0 * out


# (levels, schedules, cycles): planes up to ~4x KERNEL_BLOCK_DOUBLES and
# phase counts on both sides of PARALLEL_MIN_PHASES.
shapes_st = st.tuples(st.integers(1, 700), st.integers(1, 400),
                      st.integers(PARALLEL_MIN_PHASES // 4, 2 * PARALLEL_MIN_PHASES)).map(
    lambda s: (s[0], s[1], max(1, s[2] // (s[0] * s[1]))))


@settings(max_examples=40, deadline=None)
@given(shapes_st, st.integers(0, 2 ** 32 - 1))
@example((1, 1, 300_000), 0)      # one entry: the plane cannot be split
@example((3, 1, 100_000), 0)      # split levels, never one level per tile
@example((1, 3, 100_000), 0)      # split schedules
@example((2, 2, 70_000), 0)
@example((70_000, 1, 5), 0)       # one cycle of 70,000 levels exceeds a block
@example((1, 70_000, 5), 0)
@example((121, 240, 40), 0)       # a ratio grid over merged chain levels
def test_threaded_kernel_is_bit_identical_to_serial(shape, seed):
    levels, cols, cycles = shape
    rng = np.random.default_rng(seed)
    deltas = rng.uniform(-5.0, 5.0, levels)
    tm = rng.uniform(0.0, 3.0, (cycles, cols))
    with _kernel_workers(1):
        serial = log_survival(deltas, tm)
    assert np.array_equal(serial, _blocked_reference(deltas, tm))
    threaded = log_survival(deltas, tm)
    assert np.array_equal(threaded, serial)
    with _kernel_workers(3):
        assert np.array_equal(log_survival(deltas, tm), serial)


@settings(max_examples=150, deadline=None)
@given(st.floats(1.05, 3.0), st.integers(1, 60),
       st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=20))
def test_product_function_matches_direct_product(alpha, n_terms, thetas):
    theta = np.array(thetas)
    # The same factors the definition names, multiplied out directly.
    coeff = (alpha - 1.0) * alpha ** -np.arange(1.0, n_terms + 1.0)
    direct = np.prod(np.cos(theta[:, None] * coeff[None, :]) ** 2, axis=1)
    got = product_function(alpha, theta, n_terms)
    representable = direct > 1e-300
    np.testing.assert_allclose(got[representable], direct[representable], rtol=1e-12)
