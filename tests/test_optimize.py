"""Global schedule search, ratio search, and adaptive ratio curves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodeo_sched import (BandModel, ContinuousBand, DiscreteSpectrum, HamiltonianSpec,
                         RodeoObjective, TimeSchedule,
                         adaptive_alpha_curve, build_sector_hamiltonian, eigendecompose,
                         geometric_times, make_initial_state, optimize_alpha,
                         optimize_times, rsn_closed_form, rsn_quadrature,
                         rsn_quadrature_batch, trotter_floor, trotter_round)
from rodeo_sched import optimize
from rodeo_sched.cli import main
from rodeo_sched.optimize import ALPHA_GRID_POINTS, _optimize_alphas
from rodeo_sched.spectral import level_gap

BAND = BandModel(0.1, 1.0)
FAST = dict(budget=4000, restarts=2, seed=0)


def _per_column(score):
    """A search objective scoring each column of (N, S) times on its own."""
    return lambda tm: np.array([score(TimeSchedule(times=col)) for col in tm.T])


_closed_form = _per_column(lambda sched: rsn_closed_form(BAND, sched))


def _spy(objective, shapes):
    """``objective``, recording the shape of every matrix it is called on."""
    def spied(tm):
        shapes.append(tm.shape)
        return objective(tm)
    return spied


def _recorder(objective, matrices):
    """``objective``, keeping a copy of every matrix it is called on."""
    def recorded(tm):
        matrices.append(np.array(tm))
        return objective(tm)
    return recorded


class _Objective:
    """A search objective from a batch callable and a value_and_grad."""

    def __init__(self, batch, value_and_grad):
        self.batch, self.value_and_grad = batch, value_and_grad

    def __call__(self, tm):
        return self.batch(tm)


def _one_column_value(objective):
    """``objective`` with the polish's value taken from a one-column call."""
    return _Objective(objective, lambda times: (float(objective(times[:, None])[0]),
                                                objective.value_and_grad(times)[1]))


def test_single_level_single_time_optimum():
    # one level at distance 0.7 with weight 0.5: the residual of one cycle
    # is 0.5 cos**2(0.35 t), minimal at t = pi / 0.7
    level = DiscreteSpectrum(energies=np.array([0.0, 0.7]),
                             weights=np.array([0.5, 0.5]))
    batch = lambda tm: rsn_quadrature_batch(level, 0.0, tm)
    objective = _Objective(batch, lambda times: (float(batch(times[:, None])[0]),
                                                 -0.175 * np.sin(0.7 * times)))
    res = optimize_times(objective, 1, 10.0, **FAST)
    assert res.best_objective < 1e-8
    np.testing.assert_allclose(res.best_schedule.times[0], math.pi / 0.7,
                               rtol=1e-4)


def test_optimize_times_is_deterministic():
    a = optimize_times(BAND.objective(), 3, 12.0, **FAST)
    b = optimize_times(BAND.objective(), 3, 12.0, **FAST)
    np.testing.assert_array_equal(a.best_schedule.times, b.best_schedule.times)
    assert a.best_objective == b.best_objective
    assert a.restart_bests == b.restart_bests


def test_optimize_times_scores_each_generation_in_one_call():
    objective, shapes, polished = BAND.objective(), [], []

    def value_and_grad(times):
        polished.append(times.shape)
        return objective.value_and_grad(times)

    n, pop = 4, 24  # population min(60, max(20, 6 n))
    res = optimize_times(_Objective(_spy(objective, shapes), value_and_grad), n, 8.0, **FAST)
    *search, rescore = shapes
    assert rescore == (len(res.best_schedule), 1)
    # DE generations, one call each; the polish scores one schedule per
    # value_and_grad call
    assert set(search) == {(n, pop)}
    assert set(polished) == {(n,)}
    maxiter = FAST["budget"] // FAST["restarts"] // pop - 1
    assert len(search) <= FAST["restarts"] * (maxiter + 1)
    assert res.objective_calls == {"generations": len(search), "polish": len(polished)}
    assert res.schedules_scored == {"generations": len(search) * pop, "polish": len(polished)}
    assert sum(res.schedules_scored.values()) == res.evaluations_used


@pytest.mark.parametrize("mult", [0.5, 1.0, 2.0, 3.0])
def test_batched_polish_takes_the_path_of_one_column_calls(mult):
    # The band-optimize searches: the polish's value is the value column of
    # one integration with the gradient columns, which is the bits of a
    # one-column call, so the search makes the decisions it makes when
    # each polish point is scored alone.
    objective = BAND.objective()
    t_limit = mult * math.pi / 0.1
    kw = dict(budget=480, restarts=2, seed=1)
    res = optimize_times(objective, 10, t_limit, **kw)
    alone = optimize_times(_one_column_value(objective), 10, t_limit, **kw)
    assert res.best_schedule.times.tobytes() == alone.best_schedule.times.tobytes()
    assert res.best_objective == alone.best_objective
    assert res.restart_bests == alone.restart_bests
    assert res.evaluations_used == alone.evaluations_used
    assert res.objective_calls == alone.objective_calls


@pytest.mark.parametrize("t_limit", [6.0, 20.0])
def test_band_default_matches_per_column_quadrature(t_limit):
    band = BandModel(0.2, 0.8)
    twin = band.quadrature_twin()
    reference = optimize_times(
        _Objective(_per_column(lambda sched: rsn_quadrature(twin, 0.0, sched)),
                   band.objective().value_and_grad), 3, t_limit, **FAST)
    res = optimize_times(band.objective(), 3, t_limit, **FAST)
    assert res.best_schedule.times.tobytes() == reference.best_schedule.times.tobytes()
    assert res.best_objective == reference.best_objective
    assert res.restart_bests == reference.restart_bests
    assert res.evaluations_used == reference.evaluations_used


def test_optimize_times_respects_budget_and_limit():
    res = optimize_times(BAND.objective(), 4, 8.0, **FAST)
    assert res.evaluations_used <= FAST["budget"] + 2 * FAST["restarts"]
    assert res.best_schedule.total_time <= 8.0 * (1 + 1e-9)
    assert res.best_objective <= rsn_closed_form(
        BAND, TimeSchedule(times=np.full(4, 2.0))) + 1e-12


def test_optimize_times_beats_uniform_schedule():
    t_limit = 10.0 * math.pi
    res = optimize_times(BAND.objective(), 4, t_limit, **FAST)
    uniform = rsn_closed_form(BAND, TimeSchedule(times=np.full(4, t_limit / 4)))
    assert res.best_objective < uniform


def test_budget_too_small_raises():
    with pytest.raises(ValueError):
        optimize_times(BAND.objective(), 4, 8.0, budget=30, restarts=3)


def test_too_many_samples_raises():
    with pytest.raises(ValueError):
        optimize_times(BAND.objective(), 40, 8.0, **FAST)


def test_optimize_alpha_short_time_prefers_two():
    opt = optimize_alpha(_closed_form, 10, 0.5 * math.pi / 0.1)
    assert opt.alpha > 1.98
    assert not opt.flat


def test_optimize_alpha_long_time_prefers_smaller():
    short = optimize_alpha(_closed_form, 10, 0.5 * math.pi / 0.1)
    long = optimize_alpha(_closed_form, 10, 10.0 * math.pi / 0.1)
    assert long.alpha < short.alpha
    np.testing.assert_allclose(long.alpha, 1.4130524887378129, rtol=1e-3)


def test_optimize_alpha_flat_landscape():
    opt = optimize_alpha(lambda tm: np.full(tm.shape[1], 42.0), 5, 10.0)
    assert opt.flat
    np.testing.assert_allclose(opt.alpha, 1.5, rtol=1e-12)
    assert opt.objective == 42.0


def test_optimize_alpha_is_near_stationary():
    total = 2.0 * math.pi / 0.1
    opt = optimize_alpha(_closed_form, 10, total)
    for eps in (-1e-3, 1e-3):
        nearby = _closed_form(geometric_times(opt.alpha + eps, 10, total))[0]
        assert nearby >= opt.objective - 1e-12


def test_optimize_alpha_batch_grid_matches_scalar_grid_on_a_chain():
    spec = HamiltonianSpec(model="xx", length=8)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    psi = make_initial_state(spec, "basis_index", basis_index=1)
    e0 = float(eig.eigenvalues[0])
    obj = RodeoObjective(eig, psi, e0)
    t0 = math.pi / level_gap(eig.eigenvalues, e0)
    # (alpha, objective) of the search scoring one schedule per call
    per_schedule = {0.5: (1.829125124815312, 0.9968203332152508),
                    4.0: (1.2939423087883644, 0.019262512474581307)}
    for mult, expected in per_schedule.items():
        shapes = []
        batched = optimize_alpha(_spy(obj.batch, shapes), 60, mult * t0)
        scalar = optimize_alpha(_per_column(lambda s: obj.value(s.times)), 60, mult * t0)
        assert batched == scalar
        np.testing.assert_allclose((batched.alpha, batched.objective), expected, rtol=1e-12)
        assert shapes[0] == (60, ALPHA_GRID_POINTS)
        assert len(shapes) > 1 and set(shapes[1:]) == {(60, 1)}


def test_optimize_alpha_batch_grid_matches_scalar_grid_on_a_band():
    band = ContinuousBand(0.0, 1.0, density="gaussian")
    dt = 0.01 * math.pi
    objective = _per_column(lambda s: rsn_quadrature(band, -1.0, trotter_round(s, dt)))
    batch = lambda tm: rsn_quadrature_batch(band, -1.0, trotter_floor(tm, dt))
    # (alpha, objective) of the search scoring one schedule per call
    per_schedule = {0.3: (1.9621967033631071, 0.8755013561374959),
                    5.0: (1.234814026960805, 3.208423639784529e-06)}
    for mult, expected in per_schedule.items():
        shapes = []
        scalar = optimize_alpha(objective, 100, mult * math.pi)
        batched = optimize_alpha(_spy(batch, shapes), 100, mult * math.pi)
        assert batched.alpha == scalar.alpha
        np.testing.assert_allclose(batched.objective, scalar.objective, rtol=1e-13)
        np.testing.assert_allclose((batched.alpha, batched.objective), expected, rtol=1e-12)
        assert shapes[0] == (100, ALPHA_GRID_POINTS)
        assert len(shapes) > 1 and set(shapes[1:]) == {(100, 1)}


def test_lockstep_searches_equal_searches_run_alone():
    spec = HamiltonianSpec(model="xx", length=8)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    e0 = float(eig.eigenvalues[0])
    chain = RodeoObjective(eig, make_initial_state(spec, "basis_index", basis_index=1), e0)
    t0 = math.pi / level_gap(eig.eigenvalues, e0)
    band = ContinuousBand(0.0, 1.0, density="gaussian")
    levels = DiscreteSpectrum(energies=np.array([0.0, 0.3, 0.45, 1.0]),
                              weights=np.array([0.4, 0.3, 0.2, 0.1]))
    cases = [
        (chain.batch, 60, [0.5 * t0, 2.0 * t0, 4.0 * t0]),
        # at 0.1 pi every ratio floors to the empty schedule: a flat search
        (lambda tm: rsn_quadrature_batch(band, -1.0, trotter_floor(tm, 0.25)), 60,
         [0.1 * math.pi, math.pi, 5.0 * math.pi]),
        (lambda tm: rsn_quadrature_batch(levels, 0.0, tm), 20, [3.0, 10.0, 40.0]),
    ]
    flat, step_counts = 0, set()
    for objective, n, totals in cases:
        alone, solo = [], []  # each search run on its own, and the matrices it scored
        for t in totals:
            solo.append([])
            alone.append(optimize_alpha(_recorder(objective, solo[-1]), n, t))
        together = []
        assert _optimize_alphas(_recorder(objective, together), n, totals, (1.0, 2.0)) == alone
        assert [opt.total_time for opt in alone] == totals
        assert all(m.shape[1] > 0 for m in together)
        # one grid call per search, in the order of the totals
        grids, golden = together[:len(totals)], together[len(totals):]
        for grid, own in zip(grids, solo):
            np.testing.assert_array_equal(grid, own[0])
        # golden step s holds the s-th step of each search still refining
        assert len(golden) == max(len(own) - 1 for own in solo)
        for s, m in enumerate(golden):
            np.testing.assert_array_equal(
                m, np.hstack([own[1 + s] for own in solo if len(own) > 1 + s]))
        flat += sum(opt.flat for opt in alone)
        step_counts |= {len(own) - 1 for own in solo}
    assert flat == 1 and len(step_counts) >= 3


def _counting(calls, function):
    """``function``, appending its positional arguments to ``calls``."""
    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)
    return counted


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 1200), st.lists(st.floats(1e-2, 1e4), min_size=1, max_size=12),
       st.floats(1.0, 3.0), st.floats(1e-3, 2.0))
def test_a_lockstep_run_builds_one_table_and_scores_its_grids_bit_for_bit(n, totals, lo, width):
    tables, matrices = [], 0

    def objective(tm):
        # a ratio landscape with its minimum inside the bounds: t1 against the mean time
        nonlocal matrices
        if matrices < len(totals):
            [(grid, _)] = tables
            assert tm.flags.c_contiguous
            assert tm.tobytes() == geometric_times(grid, n, totals[matrices]).tobytes()
        matrices += 1
        return np.abs(tm[0] - 1.5 * tm.mean(axis=0))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "geometric_table", _counting(tables, optimize.geometric_table))
        results = _optimize_alphas(objective, n, totals, (lo, lo + width))
    assert len(tables) == 1 and tables[0][0].shape == (ALPHA_GRID_POINTS,)
    assert [opt.total_time for opt in results] == totals
    assert matrices >= len(totals)


def test_a_sweep_builds_one_table_per_trotter_step(monkeypatch, tmp_path):
    tables, grids = [], []
    monkeypatch.setattr(optimize, "geometric_table", _counting(tables, optimize.geometric_table))
    monkeypatch.setattr(optimize, "scale_table", _counting(grids, optimize.scale_table))
    assert main(["schedule-fit", "--preset", "xi2", "--sweep", "--n-samples", "100",
                 "--t-points", "10", "--dt-mults", "0.01,0.05",
                 "--out", str(tmp_path / "sweep.json")]) == 0
    assert len(tables) == 2 and len(grids) == 20


def test_adaptive_curve_monotone_mode():
    grid = np.geomspace(0.3, 10.0, 6) * math.pi / 0.1
    curve = adaptive_alpha_curve(_closed_form, 10, grid, monotone=True)
    alphas = [p.alpha for p in curve]
    assert all(a2 <= a1 + 1e-9 for a1, a2 in zip(alphas, alphas[1:]))
    for p, t in zip(curve, grid):
        assert p.total_time == t


def test_a_flat_point_leaves_the_monotone_bound_alone():
    # Flat at T = 1, best ratio 1.8 at T = 2. The flat search reports the
    # bounds' midpoint, which says nothing about where the optimum lies.
    def objective(tm):
        if tm[:, 0].sum() < 1.5:
            return np.ones(tm.shape[1])
        return (tm[0] / tm[1] - 1.8) ** 2

    monotone = adaptive_alpha_curve(objective, 5, [1.0, 2.0], monotone=True)
    free = adaptive_alpha_curve(objective, 5, [1.0, 2.0])
    assert monotone[0].alpha == free[0].alpha == 1.5
    assert monotone[1].alpha == free[1].alpha
    assert monotone[1].alpha == pytest.approx(1.8, rel=1e-5)


def test_adaptive_curve_requires_ascending_grid():
    with pytest.raises(ValueError):
        adaptive_alpha_curve(_closed_form, 10, np.array([5.0, 1.0]))


def test_config_validation():
    with pytest.raises(ValueError):
        optimize_times(_closed_form, 4, 8.0, budget=0)
    with pytest.raises(ValueError):
        optimize_times(_closed_form, 4, 8.0, restarts=0)
    with pytest.raises(ValueError):
        optimize_alpha(_closed_form, 10, 8.0, alpha_bounds=(2.0, 1.0))
