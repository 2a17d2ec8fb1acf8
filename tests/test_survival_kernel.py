"""The log-space survival kernel and the residuals built on it."""

import math
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rodeo_sched import (DiscreteSpectrum, EigenSystem, HamiltonianSpec, InitialState,
                         RodeoObjective, TimeSchedule, build_sector_hamiltonian, eigendecompose,
                         geometric_times, make_initial_state, minimum_gap,
                         product_function, rsn_quadrature, rsn_quadrature_batch,
                         superiteration_schedule, spectral, trotter_floor)
from rodeo_sched import quadrature
from rodeo_sched.quadrature import QuadratureError
from rodeo_sched.schedules import TIME_FLOOR, trotter_steps
from rodeo_sched.spectral import (LOG_COS_SERIES, PARALLEL_MIN_PHASES, SHORT_PHASE,
                                  TrotterObjective, log_survival, log_surviving, target_mask)

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
            zeta, target = obj.weights(col[:, None])
            np.testing.assert_allclose(zeta[0], surv[1:, j].sum(), rtol=1e-9)
            np.testing.assert_allclose(target[0], surv[0, j], rtol=1e-12)


@pytest.mark.parametrize("build, kept, dropped", ((_tfim_chain, 30, 90), (_xx_chain, 121, 0)))
def test_levels_below_float64_resolution_are_dropped(build, kept, dropped):
    # TFIM plus: 90 of 120 non-target levels weigh 2.6e-34 to 2.1e-30, round-off
    # on overlaps that symmetry makes zero; the real ones weigh 5.7e-6 and up
    _, eig, psi = build(10)
    e0 = float(eig.eigenvalues[0])
    obj = RodeoObjective(eig, psi, e0)
    w = (eig.eigenvectors.T @ psi.vector) ** 2
    floor = (len(psi.vector) * np.finfo(float).eps) ** 2 * w.sum()
    assert (obj.levels, len(obj._rest[0]), len(obj._target[0])) == (kept, kept, 1)
    _, (every_d, every_log_w), _ = DiscreteSpectrum(eig.eigenvalues, w).levels(e0)
    gone = ~np.isin(every_d, obj._rest[0])
    assert gone.sum() == obj.levels_below_resolution == dropped
    assert np.all(np.exp(every_log_w[gone]) <= floor)
    for _, log_w in (obj._rest, obj._target):
        assert np.all(np.exp(log_w) >= 1e6 * floor)


# RodeoObjective.batch at L = 8 on geometric columns (ratios 2, 1.5, 1.1 at
# 1, 8 and 40 T0, N = 100), pinned to guard the chain objective's bits.
# Since each column's cycles are added in order and each column decides
# the series alone, three values moved in their last bits:
# 0.22372612908953934 -> ...394 and 0.0003364557692242408 -> ...414 (tfim),
# 5.584464699474477e-19 -> ...4595e-19 (xx). The direct path's log1p(tan**2)
# in place of log|cos| moved 2.2576502366592384e-20 -> ...2224e-20 (tfim),
# 1.6e-16 of its log.
@pytest.mark.parametrize("build, expected", (
    (_tfim_chain, "[0.2237261290895394, 0.0003364557692242414, 2.2576502366592224e-20]"),
    (_xx_chain, "[0.9903319591352839, 0.15362364148253504, 5.584464699474595e-19]")),
    ids=("tfim-plus", "xx-e1"))
def test_chain_objective_bits_are_pinned(build, expected):
    _, eig, psi = build(8)
    e0 = float(eig.eigenvalues[0])
    t0 = math.pi / minimum_gap(eig, e0)
    tm = geometric_times(np.array([2.0, 1.5, 1.1]), 100, np.array([1.0, 8.0, 40.0]) * t0)
    assert repr(RodeoObjective(eig, psi, e0).batch(tm).tolist()) == expected


# Energies on a 0.01 grid, so that two levels are either equal or far
# apart; 0 is the target. Weights include zeros.
grid_spectra_st = st.lists(st.tuples(st.integers(-300, 300), st.floats(0.0, 1.0)),
                           max_size=10)


@settings(max_examples=200, deadline=None)
@given(grid_spectra_st, st.lists(times_st, min_size=1, max_size=4).map(
    lambda cols: [c + [0.0] * (12 - len(c)) for c in cols]))
@example([(0, 0.1), (30, 0.2), (30, 0.3), (-70, 0.0), (-70, 0.0), (120, 0.0), (250, 0.15)],
         [[3.0, 7.5, 11.0, 26.0] + [0.0] * 8, [40.0, 0.4] + [0.0] * 10])
def test_discrete_residual_matches_the_direct_sum(levels, columns):
    e = np.array([0.01 * k for k, _ in levels])
    w = np.array([x for _, x in levels])
    if w.sum() > 1.0:
        w /= w.sum()
    tm = np.array(columns).T
    keep = ~target_mask(e, 0.0)
    products = np.prod(np.cos(0.5 * e[keep, None, None] * tm[None]) ** 2, axis=1)
    direct = w[keep] @ products
    got = rsn_quadrature_batch(DiscreteSpectrum(e, w), 0.0, tm)
    # levels() places a level at its weight-averaged offset (d w) / w, which
    # moves an offset d by up to (members + 2) eps |d|, and a product P of
    # cos**2 factors by at most that shift times sum(t) sqrt(P).
    shift = (len(e) + 2) * np.finfo(float).eps * np.abs(e[keep])
    moved = (w[keep] * shift) @ np.sqrt(products) * tm.sum(axis=0)
    representable = direct > 1e-300
    assert np.all(np.abs(got - direct)[representable]
                  <= (1e-12 * direct + moved)[representable])


noise_st = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 0.9)), max_size=8)


@settings(max_examples=150, deadline=None)
@given(spectra_st, noise_st, st.lists(times_st, min_size=1, max_size=4).map(
    lambda cols: [c + [0.0] * (12 - len(c)) for c in cols]))
def test_weights_below_the_floor_do_not_move_the_objective(spectrum_args, noise, columns):
    # Levels of a random spectrum as an eigensystem with unit eigenvectors,
    # plus levels whose weight lies below (n eps)**2 of the total.
    spectrum = _spectrum(*spectrum_args)
    tm = np.array(columns).T

    def objective(energies, amplitudes):
        eig = EigenSystem(np.asarray(energies), np.eye(len(energies)), len(energies))
        return RodeoObjective(eig, InitialState(np.asarray(amplitudes)), 0.0)

    amps = np.sqrt(spectrum.weights)
    n = len(amps) + len(noise)
    noisy_e = np.concatenate([spectrum.energies, [e for e, _ in noise]])
    noisy_a = np.concatenate([amps, [f * n * np.finfo(float).eps for _, f in noise]])
    clean, noisy = objective(spectrum.energies, amps), objective(noisy_e, noisy_a)
    np.testing.assert_allclose(noisy.batch(tm), clean.batch(tm), rtol=1e-12)


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


def test_kernel_memory_of_the_series_has_no_plane_sized_temporary():
    # The same 65,000 levels x 1 schedule (the shape of long-horizon's decay
    # windows) with most phases short: the powers of the level ratios go in
    # blocks, their products with the power sums are written into the
    # result, and the cycles left for cos accumulate into it as before.
    rng = np.random.default_rng(0)
    deltas = rng.uniform(-5.0, 5.0, 65_000)
    tm = (3.0 * 0.8 ** np.arange(71.0))[:, None]
    assert _takes_series(deltas, tm)
    tracemalloc.start()
    try:
        out = log_survival(deltas, tm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (65_000, 1)
    assert peak < 3.5 * out.nbytes


@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_memory_of_a_reordered_call_holds_two_planes(seed):
    # A Trotter-floored ratio grid whose direct and series columns of
    # several bands interleave, so the columns are reordered once: the
    # groups accumulate into slices of one plane and a gather puts the
    # columns back, beside a copy of the times, with no per-group copy.
    deltas, tm = _kernel_call((600, 240, 100), seed, "trotter")
    order, _, _ = spectral._split_cycles(0.5 * deltas, tm, np.zeros((600, 240)))
    assert order is not None
    tracemalloc.start()
    try:
        out = log_survival(deltas, tm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (600, 240)
    assert peak < 2.5 * out.nbytes


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
    """The direct cos**2 product with the kernel's arithmetic and no tiles:
    each cycle's log1p(tan**2) = -log cos**2 over the whole plane, added
    in order, and the sum negated."""
    half = 0.5 * deltas
    out = np.zeros((half.size, times.shape[1]))
    for row in times:
        out += np.log1p(np.tan(half[:, None] * row[None, :]) ** 2)
    return -out


def _takes_series(deltas, times):
    """Whether log_survival sums some cycles of this call as a power series."""
    work = {}
    log_survival(deltas, times, work)
    return work.get("series", 0) > 0


@contextmanager
def _series_forced():
    """Take the series whenever it applies, whatever it costs."""
    saved = spectral.SERIES_MIN_PHASES
    spectral.SERIES_MIN_PHASES = -10 ** 9
    try:
        yield
    finally:
        spectral.SERIES_MIN_PHASES = saved


def _assert_matches_reference(got, deltas, times):
    # rtol 1e-13 on the log plus as much absolute: where the log is of
    # order one the products agree to 1e-13 relative.
    np.testing.assert_allclose(got, _blocked_reference(deltas, times), rtol=1e-13, atol=1e-13)


@st.composite
def _straddling_calls(draw):
    """(deltas, times) whose phases at the largest offset fall on both
    sides of SHORT_PHASE: times are 0 to 3 units of SHORT_PHASE / h
    (h = max |delta| / 2), with 0 and exactly 1 unit drawn often."""
    levels, cycles, cols = draw(st.integers(1, 40)), draw(st.integers(1, 30)), draw(st.integers(1, 6))
    deltas = np.array(draw(st.lists(st.floats(-6.0, 6.0, allow_subnormal=False),
                                    min_size=levels, max_size=levels)))
    h = float(np.abs(0.5 * deltas).max())
    unit = SHORT_PHASE / h if h > 0 else 1.0
    units = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 3.0)),
                          min_size=cycles * cols, max_size=cycles * cols))
    return deltas, np.array(units).reshape(cycles, cols) * unit


@settings(max_examples=300, deadline=None)
@given(_straddling_calls(), st.booleans())
@example((np.array([1.0, -0.5]), np.array([[1.0, 0.0], [1.0, 3.0], [0.5, 1.0]])), True)
@example((np.array([1.0, -0.5]), np.zeros((4, 3))), True)               # zero times
@example((np.zeros(3), np.array([[0.3, 2.0], [7.0, 0.0]])), True)        # all deltas 0
@example((np.array([4.0, 1e-12, -2.5, 1e-300, 3.0]),
          np.array([[0.1, 0.5, 0.25], [1.0, 0.05, 0.0]])), True)        # tiny deltas
def test_series_matches_the_direct_product(call, forced):
    # forced: every call with a short phase takes the series, so small
    # draws check its arithmetic too; otherwise the cost rule decides.
    deltas, tm = call
    with _series_forced() if forced else nullcontext():
        got = log_survival(deltas, tm)
    _assert_matches_reference(got, deltas, tm)


def test_log_cos_coefficients_and_truncation_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        # log cos x = sum_n (-1)**n 2**(2n-1) (2**(2n) - 1) B_2n x**(2n) / (n (2n)!)
        exact = [(-1) ** n * mpmath.mpf(2) ** (2 * n - 1) * (mpmath.mpf(2) ** (2 * n) - 1)
                 * mpmath.bernoulli(2 * n) / (n * mpmath.factorial(2 * n))
                 for n in range(1, 17)]
        assert LOG_COS_SERIES.size == 16
        for b, ref in zip(LOG_COS_SERIES, exact):
            assert b < 0
            assert abs(b - ref) <= 2.0 ** -53 * abs(ref)
        # Every term has the same sign and the tail over the first term
        # grows with x, so the bound at SHORT_PHASE covers every short phase.
        x = mpmath.mpf(SHORT_PHASE)
        truth = mpmath.log(mpmath.cos(x))
        tail = truth - sum(c * x ** (2 * n) for n, c in enumerate(exact, start=1))
        assert abs(tail / truth) < 2e-17


def test_direct_path_matches_mpmath(monkeypatch):
    # One level at offset 2 (h = 1), one cycle per column: each entry is the
    # direct path's -log1p(tan**2 t) for a phase t, against log cos**2 t in
    # 350 digits (cos 1e-150 differs from 1 in its 300th). Phases: tiny,
    # next to k pi and (k + 1/2) pi, and up to 1e6.
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(spectral, "SERIES_MIN_PHASES", 2 ** 62)
    tiny = 10.0 ** -np.arange(150.0, 0.0, -7.0)
    ks = np.array([1.0, 2.0, 3.0, 10.0, 100.0, 1e3, 1e4, 1e5, 3e5])
    poles = np.concatenate([ks * math.pi, (ks + 0.5) * math.pi, [0.5 * math.pi]])
    poles = np.concatenate([poles, np.nextafter(poles, 0.0), np.nextafter(poles, np.inf)])
    wide = np.random.default_rng(0).uniform(0.0, 1e6, 200)
    phases = np.concatenate([tiny, poles, wide, [1e6]])
    work = {}
    got = log_survival(np.array([2.0]), phases[None, :], work)[0]
    assert work == {"series": 0, "cos": phases.size}
    with mpmath.workdps(350):
        for x, value in zip(phases, got):
            exact = mpmath.log(mpmath.cos(mpmath.mpf(float(x))) ** 2)
            assert abs(value - exact) <= 1e-15 * abs(exact), x


@pytest.mark.parametrize("forced", [False, True], ids=["direct", "series"])
@pytest.mark.parametrize("shape", [(0, 100, 240), (600, 0, 240), (600, 100, 0)],
                         ids=["no-levels", "no-cycles", "no-schedules"])
def test_calls_with_an_empty_axis_return_zeros(shape, forced):
    levels, cycles, cols = shape
    with _series_forced() if forced else nullcontext():
        got = log_survival(np.full(levels, 2.0), np.full((cycles, cols), 0.1))
    assert got.shape == (levels, cols)
    assert not got.any()


@pytest.mark.parametrize("levels, cycles, cols", ((1, 100, 240), (3, 1000, 1), (400, 50, 240)))
def test_zero_offsets_return_zeros_without_a_cos_pass(levels, cycles, cols, monkeypatch):
    # A chain objective's target manifold sits at offset 0: cos(0) is 1
    # for every finite time, so no phase needs computing.
    def refuse(*args):
        raise AssertionError("zero offsets entered the cycle loop")

    monkeypatch.setattr(spectral, "_accumulate", refuse)
    monkeypatch.setattr(spectral, "_split_cycles", refuse)
    times = np.random.default_rng(0).uniform(0.0, 50.0, (cycles, cols))
    got = log_survival(np.zeros(levels), times)
    assert got.shape == (levels, cols)
    assert np.array_equal(got, np.zeros((levels, cols)))


def _column(short, cycles):
    """A schedule column of ``cycles`` times, ``short`` of them short at
    offsets up to 2 (h = 1): the short ones geometric below SHORT_PHASE, the
    rest long, the two kinds interleaved."""
    t = np.concatenate([SHORT_PHASE * 0.9 ** np.arange(short),
                        np.linspace(1.0, 9.0, cycles - short)])
    return np.random.default_rng(short).permutation(t)


@st.composite
def _mixed_calls(draw):
    """(deltas, times) at 32-128 levels and 40-80 cycles, each column with
    its own count of short cycles: under the cost rule (10-30 short cycles
    pay here) columns with few go direct and the others take the series
    in bands of an eighth of the cycles, several bands in one call."""
    levels, cycles = draw(st.integers(32, 128)), draw(st.integers(40, 80))
    shorts = draw(st.lists(st.integers(0, cycles), min_size=1, max_size=8))
    deltas = np.linspace(-2.0, 2.0, levels)
    return deltas, np.stack([_column(k, cycles) for k in shorts], axis=1)


@settings(max_examples=60, deadline=None)
@given(_mixed_calls())
@example((np.linspace(-2.0, 2.0, 64), np.stack([_column(k, 64) for k in (60, 62, 64)], axis=1)))
@example((np.linspace(-2.0, 2.0, 64), np.stack([_column(k, 64) for k in (0, 20, 60, 10)], axis=1)))
def test_every_kernel_column_is_the_bits_of_its_one_column_call(call):
    # The first example has every column on the series in one band, the
    # second direct columns beside series columns of two bands.
    deltas, tm = call
    got = log_survival(deltas, tm)
    for j in range(tm.shape[1]):
        assert got[:, j].tobytes() == log_survival(deltas, tm[:, j:j + 1])[:, 0].tobytes()


def _kernel_call(shape, seed, kind):
    """(deltas, times) of a (levels, schedules, cycles) call. "uniform":
    offsets in [-5, 5], times in [0, 3]. "trotter": band offsets in [1, 2]
    under a Trotter-floored ratio grid, mostly short phases. "decay": a
    window of suppression-product angles at alpha = 2."""
    levels, cols, cycles = shape
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-5.0, 5.0, levels), rng.uniform(0.0, 3.0, (cycles, cols))
    if kind == "trotter":
        alphas = 1.0 + np.geomspace(1e-4, 1.0, cols)
        total = rng.uniform(0.1, 10.0) * math.pi
        times = trotter_floor(geometric_times(alphas, cycles, total), 0.01 * math.pi)
        return rng.uniform(1.0, 2.0, levels), times
    times = 2.0 * 2.0 ** -np.arange(1.0, cycles + 1.0)
    return np.linspace(87_096.0, 100_000.0, levels), np.tile(times[:, None], (1, cols))


@pytest.mark.parametrize("shape, kind", [((600, 240, 100), "trotter"),
                                         ((64_520, 1, 50), "decay")])
def test_benchmark_shaped_calls_take_the_series(shape, kind):
    assert _takes_series(*_kernel_call(shape, 0, kind))


# (levels, schedules, cycles): planes up to ~4x KERNEL_BLOCK_DOUBLES and
# phase counts on both sides of PARALLEL_MIN_PHASES.
shapes_st = st.tuples(st.integers(1, 700), st.integers(1, 400),
                      st.integers(PARALLEL_MIN_PHASES // 4, 2 * PARALLEL_MIN_PHASES)).map(
    lambda s: (s[0], s[1], max(1, s[2] // (s[0] * s[1]))))


@settings(max_examples=40, deadline=None)
@given(shapes_st, st.integers(0, 2 ** 32 - 1), st.sampled_from(["uniform", "trotter"]))
@example((1, 1, 300_000), 0, "uniform")      # one entry: the plane cannot be split
@example((3, 1, 100_000), 0, "uniform")      # split levels, never one level per tile
@example((1, 3, 100_000), 0, "uniform")      # split schedules
@example((2, 2, 70_000), 0, "uniform")
@example((70_000, 1, 5), 0, "uniform")       # one cycle of 70,000 levels exceeds a block
@example((1, 70_000, 5), 0, "uniform")
@example((121, 240, 40), 0, "uniform")       # a ratio grid over merged chain levels
@example((600, 240, 100), 0, "trotter")      # a Trotter-floored band ratio grid
@example((64_520, 1, 50), 0, "decay")        # long-horizon's widest decay window
def test_threaded_kernel_is_bit_identical_to_serial(shape, seed, kind):
    deltas, tm = _kernel_call(shape, seed, kind)
    with _kernel_workers(1):
        serial = log_survival(deltas, tm)
    # The series changes the arithmetic by design; the direct path keeps it.
    if _takes_series(deltas, tm):
        _assert_matches_reference(serial, deltas, tm)
    else:
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


def test_kernel_counts_the_phases_of_each_path():
    deltas = np.linspace(-2.0, 2.0, 600)
    # 100 short cycles (|t| <= SHORT_PHASE / h, h = 1) and 10 long ones, in
    # a column that takes the series, beside a column of long cycles alone
    short = np.geomspace(1e-4, SHORT_PHASE, 100)
    long = np.linspace(1.0, 9.0, 10)
    tm = np.stack([np.concatenate([long, short]), np.linspace(1.0, 50.0, 110)], axis=1)
    work = {}
    log_survival(deltas, tm, work)
    assert work == {"series": 600 * 100, "cos": 600 * 10 + 600 * 110}
    # a call with no short cycle to pay for the series adds to the counts
    log_survival(deltas, tm[:, 1:], work)
    assert work == {"series": 600 * 100, "cos": 600 * 10 + 2 * 600 * 110}


def test_a_band_without_long_cycles_hands_the_direct_path_no_group():
    # Two columns of short cycles only (one series band) beside a column
    # with 40 long ones (another band): only the latter's cycles are left.
    deltas = np.linspace(-2.0, 2.0, 600)
    short = np.geomspace(1e-4, SHORT_PHASE, 100)
    mixed = np.concatenate([short[:60], np.linspace(1.0, 9.0, 40)])
    tm = np.stack([short, short[::-1], mixed], axis=1)
    _, groups, _ = spectral._split_cycles(0.5 * deltas, tm, np.zeros((600, 3)))
    assert [(cols, left.shape) for cols, left in groups] == [(slice(0, 1), (40, 1))]


@contextmanager
def _series_off():
    """Send every cycle to the direct path, whatever the series would save."""
    saved = spectral.SERIES_MIN_PHASES
    spectral.SERIES_MIN_PHASES = 2 ** 62
    try:
        yield
    finally:
        spectral.SERIES_MIN_PHASES = saved


def _lattice(deltas, steps, dt, work=None):
    """log_survival of the schedules fl(k dt), k = ``steps`` (N, S), on
    the lattice path (TrotterObjective's kernel), columns in their order."""
    plan = spectral._lattice_plan(np.asarray(steps, dtype=np.intp))
    out = np.empty((len(deltas), len(plan.order)))
    out[:, plan.order] = spectral._lattice_survival(0.5 * np.asarray(deltas, dtype=float), plan,
                                                    np.arange(len(plan.order)), dt,
                                                    {} if work is None else work)
    return out


@st.composite
def _lattice_calls(draw):
    """(deltas, steps, dt) of a Trotter-floored call: integer steps k up
    to K = 10**6 (the largest past the presence mask's reach, so sorted),
    zero steps drawn often, of the times fl(k dt) trotter_floor writes;
    columns as drawn or in decreasing order, as floored geometric
    schedules come (zero steps last)."""
    levels, cycles, cols = draw(st.integers(1, 30)), draw(st.integers(1, 40)), draw(st.integers(1, 6))
    top = draw(st.sampled_from([1, 10, 500, 10 ** 4, 10 ** 6]))
    steps = np.array(draw(st.lists(st.one_of(st.just(0), st.integers(0, top)),
                                   min_size=cycles * cols, max_size=cycles * cols)))
    steps = steps.reshape(cycles, cols)
    if draw(st.booleans()):
        steps = -np.sort(-steps, axis=0)
    dt = draw(st.floats(1e-3, 2.0))
    deltas = np.array(draw(st.lists(st.floats(-6.0, 6.0, allow_subnormal=False),
                                    min_size=levels, max_size=levels)))
    return deltas, steps, dt


@settings(max_examples=300, deadline=None)
@given(_lattice_calls())
@example((np.array([1.5]), np.array([[3], [2], [1]]), 0.1))                # one entry
@example((np.array([1.5]), np.array([[3, 0], [1, 0]]), 0.1))               # one level
@example((np.array([1.0, -0.5]), np.zeros((4, 3), dtype=np.intp), 0.5))   # zero steps only
@example((np.zeros(3), np.array([[2, 1]]), 0.3))                           # all offsets 0
@example((np.array([1.0, 1.7283399e-158]), np.array([[7], [3]]), 0.9))     # subnormal sums
def test_the_lattice_path_is_the_direct_path_bit_for_bit(call):
    deltas, steps, dt = call
    tm = steps * dt
    got = _lattice(deltas, steps, dt)
    with _series_off():
        assert got.tobytes() == log_survival(deltas, tm).tobytes()
    for s in range(tm.shape[1]):
        assert _lattice(deltas, steps[:, s:s + 1], dt).tobytes() == got[:, s:s + 1].tobytes()
    # Against the default kernel, whose series sums short cycles another
    # way: 1.3e-15 relative at most over 20,000 random calls of this shape
    # (both sums add at most 40 terms of one sign, about 40 ulp apart).
    # Below the smallest normal double a sum keeps fewer digits, so that
    # range is compared in absolute terms.
    np.testing.assert_allclose(got, log_survival(deltas, tm), rtol=1e-14,
                               atol=np.finfo(float).tiny)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_benchmark_shaped_lattice_call_is_the_direct_path_in_tiles(seed):
    # 600 band levels under a floored ratio grid: 144-164 distinct steps, so
    # the table splits over levels; and peak memory, the plan included,
    # stays under 3.5 planes (2.7 measured: the result, each tile's table
    # and sums, the steps).
    deltas, tm = _kernel_call((600, 240, 100), seed, "trotter")
    dt = 0.01 * math.pi
    steps = trotter_steps(tm, dt).astype(np.intp)
    assert (steps * dt).tobytes() == tm.tobytes()
    tracemalloc.start()
    try:
        plan = spectral._lattice_plan(steps)
        got = spectral._lattice_survival(0.5 * deltas, plan, np.arange(240), dt, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * got.nbytes
    with _series_off():
        assert got.tobytes() == log_survival(deltas, tm[:, plan.order]).tobytes()


def test_the_lattice_table_holds_each_level_at_each_distinct_nonzero_step():
    deltas = np.linspace(0.5, 2.0, 7)
    steps = np.array([[5, 9, 0], [3, 5, 0], [0, 3, 0], [5, 0, 0]])
    work = {}
    _lattice(deltas, steps, 0.25, work)
    # steps 3, 5 and 9; 4 + 3 + 0 rows read up to each column's last
    # nonzero step, one entry per level each
    assert work == {"lattice": 7 * 3, "gathered": 7 * 7}


def test_lattice_entries_next_to_zeros_of_cos_match_mpmath():
    # One level at offset 2 (h = 1), so each entry is log cos**2 of the
    # time fl(k dt) itself; dt = pi / 2000 puts steps 1000 (2m + 1) + j
    # within a few dt of the zeros (2m + 1) pi / 2 of cos, two steps to a
    # column, all in one table. Against 60 digits.
    mpmath = pytest.importorskip("mpmath")
    dt = math.pi / 2000.0
    steps = [1000 * (2 * m + 1) + j for m in (0, 1, 10, 100, 1000) for j in (-3, -1, 0, 1, 2, 3)]
    k = np.array(steps).reshape(2, -1)
    work = {}
    got = _lattice(np.array([2.0]), k, dt, work)
    assert work == {"lattice": len(steps), "gathered": len(steps)}
    with mpmath.workdps(60):
        for col, value in zip((k * dt).T, got[0]):
            exact = sum(mpmath.log(mpmath.cos(mpmath.mpf(float(t))) ** 2) for t in col)
            assert abs(value - exact) <= 1e-15 * abs(exact), col


_PLANNED_SPECTRA = {
    "band": (spectral.ContinuousBand(0.0, 1.0, "gaussian"), -1.0),
    "discrete": (DiscreteSpectrum(np.array([0.0, 0.5, 1.3, 2.0]),
                                  np.array([0.4, 0.3, 0.2, 0.1])), 0.0),
}


@pytest.mark.parametrize("kind", sorted(_PLANNED_SPECTRA))
def test_a_trotter_objective_scores_the_floors_of_its_times(kind):
    spectrum, e_target = _PLANNED_SPECTRA[kind]
    dt = 0.05
    alphas = 1.0 + np.geomspace(1e-3, 1.0, 12)
    tm = geometric_times(alphas, 30, 2.0 * math.pi)
    floored = trotter_floor(tm, dt)
    got = TrotterObjective(spectrum, e_target, dt)(tm)
    for s in range(tm.shape[1]):
        assert got[s] == TrotterObjective(spectrum, e_target, dt)(tm[:, s:s + 1])[0]
    with _series_off():
        assert got.tobytes() == rsn_quadrature_batch(spectrum, e_target, floored).tobytes()
    np.testing.assert_allclose(got, rsn_quadrature_batch(spectrum, e_target, floored), rtol=1e-13)


@st.composite
def _planned_batches(draw):
    """(steps, dt): the integer steps (N, S) of a Trotter batch, S from 0
    to 5, columns of any length from 0 (all zeros) to N, ties in length
    common, in any column order and either memory layout."""
    cycles, cols = draw(st.integers(1, 8)), draw(st.integers(0, 5))
    top = draw(st.sampled_from([1, 5, 40]))
    columns = []
    for _ in range(cols):
        length = draw(st.integers(0, cycles))
        col = draw(st.lists(st.integers(0, top), min_size=length, max_size=length))
        if length:
            col[-1] = max(col[-1], 1)
        columns.append(col + [0] * (cycles - length))
    steps = np.array(columns, dtype=np.intp).reshape(cols, cycles).T
    steps = steps[:, draw(st.permutations(range(cols)))]
    if draw(st.booleans()):
        steps = np.ascontiguousarray(steps)
    return steps, draw(st.sampled_from([0.01, 0.05, 0.3]))


@settings(max_examples=80, deadline=None)
@given(_planned_batches(), st.sampled_from(sorted(_PLANNED_SPECTRA)))
@example((np.zeros((3, 0), dtype=np.intp), 0.05), "band")               # S = 0
@example((np.zeros((3, 0), dtype=np.intp), 0.05), "discrete")
@example((np.array([[4], [2]]), 0.05), "band")                          # S = 1
@example((np.array([[0, 3, 0, 3], [0, 1, 0, 2]]), 0.05), "band")        # zeros, ties
@example((np.array([[0, 3, 0, 3], [0, 1, 0, 2]]), 0.05), "discrete")
def test_a_planned_batch_is_each_columns_one_column_call_bit_for_bit(batch, kind):
    # One plan per call (the columns ordered longest first once); every
    # kernel call takes an ordered slice of it, and a call that sorts its
    # steps writes its ranks over a private copy, so the refinements of
    # one column, sharing the plan, read it intact.
    steps, dt = batch
    spectrum, e_target = _PLANNED_SPECTRA[kind]
    tm = steps * dt
    assert np.array_equal(trotter_steps(tm, dt), steps)  # the times are their own floors
    got = TrotterObjective(spectrum, e_target, dt)(tm)
    assert got.shape == (steps.shape[1],)
    # the direct path, which plans nothing, has the lattice path's bits
    with _series_off():
        assert rsn_quadrature_batch(spectrum, e_target, tm).tobytes() == got.tobytes()
    for s in range(steps.shape[1]):
        one = TrotterObjective(spectrum, e_target, dt)(tm[:, s:s + 1])
        assert one.tobytes() == got[s:s + 1].tobytes()


def test_the_rank_branch_reads_a_fortran_ordered_column_subset():
    # Steps up to 10**6 against n S = 48: _add_lattice sorts them and writes
    # their ranks over its steps. A column subset steps[:, cols] comes back
    # Fortran-ordered, so ravel() copies it; the ranks must be read from
    # that copy, not from the untouched steps.
    full = np.random.default_rng(3).integers(1, 10 ** 6, size=(12, 9))
    subset = full[:, [1, 4, 5, 8]]
    assert not subset.flags.c_contiguous
    half = 0.5 * np.linspace(0.3, 2.0, 5)
    length = np.full(4, 12)
    ordered = np.zeros((5, 4))
    spectral._add_lattice(half, np.ascontiguousarray(subset), length, 0.01, ordered)
    got = np.zeros((5, 4))
    spectral._add_lattice(half, subset, length, 0.01, got)
    assert got.tobytes() == ordered.tobytes()
    with _series_off():
        assert (-got).tobytes() == log_survival(2.0 * half, subset * 0.01).tobytes()


@pytest.mark.parametrize("kind", sorted(_PLANNED_SPECTRA))
def test_a_trotter_objective_plans_each_batch_once_and_integrates_each_floor_once(
        kind, monkeypatch):
    calls = {"plan": 0, "kernel": 0}
    plan, kernel = spectral._lattice_plan, spectral._add_lattice

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(spectral, "_lattice_plan", counted("plan", plan))
    monkeypatch.setattr(spectral, "_add_lattice", counted("kernel", kernel))
    spectrum, e_target = _PLANNED_SPECTRA[kind]
    totals = np.geomspace(2.0, 40.0, 12) * math.pi   # several starting-panel groups
    tm = geometric_times(1.0 + np.geomspace(1e-3, 1.0, 12), 30, totals)
    objective = TrotterObjective(spectrum, e_target, 0.05)
    first = objective(tm)
    work = dict(objective.work)
    assert calls["plan"] == 1
    # a band's first-round groups and refinements each call the kernel
    assert calls["kernel"] == work["kernel_calls"] >= (2 if kind == "band" else 1)
    assert work["gathered"] >= work["lattice"] > 0
    assert work["schedules_scored"] == work["schedules_integrated"] == 12
    # the same floors again, in another order: scored, not integrated
    assert objective(tm[:, ::-1]).tobytes() == first[::-1].tobytes()
    assert objective.work == dict(work, schedules_scored=24)
    assert calls == {"plan": 1, "kernel": work["kernel_calls"]}


def test_a_trotter_objective_reports_a_quadrature_failure_in_its_own_column_order(monkeypatch):
    # The plan hands the integrator its columns longest first (here the
    # second column first); a failure's estimates and bounds come back in
    # the caller's order, each the one-column call's.
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    monkeypatch.setattr(spectral, "ABS_TOL", 1e-300)
    band, e_target = _PLANNED_SPECTRA["band"]
    dt = 0.5
    tm = np.array([[3, 5, 1], [0, 4, 0]]) * dt
    with pytest.raises(QuadratureError) as batch:
        TrotterObjective(band, e_target, dt)(tm)
    for s in range(3):
        with pytest.raises(QuadratureError) as one:
            TrotterObjective(band, e_target, dt)(tm[:, s:s + 1])
        assert batch.value.estimate[s] == one.value.estimate
        assert batch.value.error_bound[s] == one.value.error_bound
