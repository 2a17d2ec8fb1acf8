"""Global schedule search, ratio search, and the random-width baseline."""

import math

import numpy as np
import pytest

from rodeo_sched import (BandModel, ContinuousBand, DiscreteSpectrum, HamiltonianSpec,
                         OptimizationConfig, RodeoObjective, TimeSchedule,
                         adaptive_alpha_curve, build_sector_hamiltonian, eigendecompose,
                         make_initial_state, minimum_gap, optimize_alpha,
                         optimize_rra_sigma, optimize_times, rsn_closed_form,
                         rsn_quadrature, rsn_quadrature_batch, rra_average_success,
                         trotter_floor, trotter_round)

BAND = BandModel(0.1, 1.0)
FAST = OptimizationConfig(budget=4000, restarts=2, seed=0)


def test_single_level_single_time_optimum():
    # one level at distance 0.7: the optimal single cycle is t = pi / 0.7
    level = DiscreteSpectrum(energies=np.array([0.0, 0.7]),
                             weights=np.array([0.5, 0.5]))
    objective = lambda times: rsn_quadrature(
        level, 0.0, TimeSchedule(times=np.asarray(times, dtype=float)))
    res = optimize_times(None, 1, 10.0, FAST, objective=objective)
    assert res.best_objective < 1e-8
    np.testing.assert_allclose(res.best_schedule.times[0], math.pi / 0.7,
                               rtol=1e-4)


def test_optimize_times_is_deterministic():
    a = optimize_times(BAND, 3, 12.0, FAST)
    b = optimize_times(BAND, 3, 12.0, FAST)
    np.testing.assert_array_equal(a.best_schedule.times, b.best_schedule.times)
    assert a.best_objective == b.best_objective
    assert a.restart_bests == b.restart_bests


def test_optimize_times_respects_budget_and_limit():
    res = optimize_times(BAND, 4, 8.0, FAST)
    assert res.evaluations_used <= FAST.budget + 2 * FAST.restarts
    assert res.best_schedule.total_time <= 8.0 * (1 + 1e-9)
    assert res.best_objective <= rsn_closed_form(
        BAND, TimeSchedule(times=np.full(4, 2.0))) + 1e-12


def test_optimize_times_beats_uniform_schedule():
    t_limit = 10.0 * math.pi
    res = optimize_times(BAND, 4, t_limit, FAST)
    uniform = rsn_closed_form(BAND, TimeSchedule(times=np.full(4, t_limit / 4)))
    assert res.best_objective < uniform


def test_budget_too_small_raises():
    with pytest.raises(ValueError):
        optimize_times(BAND, 4, 8.0, OptimizationConfig(budget=30, restarts=3))


def test_too_many_samples_raises():
    with pytest.raises(ValueError):
        optimize_times(BAND, 40, 8.0, FAST)


def test_optimize_alpha_short_time_prefers_two():
    objective = lambda sched: rsn_closed_form(BAND, sched)
    opt = optimize_alpha(objective, 10, 0.5 * math.pi / 0.1)
    assert opt.alpha > 1.98
    assert not opt.flat


def test_optimize_alpha_long_time_prefers_smaller():
    objective = lambda sched: rsn_closed_form(BAND, sched)
    short = optimize_alpha(objective, 10, 0.5 * math.pi / 0.1)
    long = optimize_alpha(objective, 10, 10.0 * math.pi / 0.1)
    assert long.alpha < short.alpha
    np.testing.assert_allclose(long.alpha, 1.4130524887378129, rtol=1e-3)


def test_optimize_alpha_flat_landscape():
    opt = optimize_alpha(lambda sched: 42.0, 5, 10.0)
    assert opt.flat
    np.testing.assert_allclose(opt.alpha, 1.5, rtol=1e-12)
    assert opt.objective == 42.0


def test_optimize_alpha_is_near_stationary():
    objective = lambda sched: rsn_closed_form(BAND, sched)
    total = 2.0 * math.pi / 0.1
    opt = optimize_alpha(objective, 10, total)
    from rodeo_sched import superiteration_schedule
    for eps in (-1e-3, 1e-3):
        nearby = objective(superiteration_schedule(opt.alpha + eps, 10, total))
        assert nearby >= opt.objective - 1e-12


def test_optimize_alpha_batch_grid_matches_scalar_grid_on_a_chain():
    spec = HamiltonianSpec(model="xx", length=8)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    psi = make_initial_state(spec, "basis_index", basis_index=1)
    e0 = float(eig.eigenvalues[0])
    obj = RodeoObjective(eig, psi, e0)
    t0 = math.pi / minimum_gap(eig, e0)
    for mult in (0.5, 4.0):
        scalar = optimize_alpha(lambda s: obj.value(s.times), 60, mult * t0)
        batched = optimize_alpha(lambda s: obj.value(s.times), 60, mult * t0,
                                 batch_objective=obj.batch)
        assert batched == scalar


def test_optimize_alpha_batch_grid_matches_scalar_grid_on_a_band():
    band = ContinuousBand(0.0, 1.0, density="gaussian")
    dt = 0.01 * math.pi
    objective = lambda s: rsn_quadrature(band, -1.0, trotter_round(s, dt))
    batch = lambda tm: rsn_quadrature_batch(band, -1.0, trotter_floor(tm, dt))
    for mult in (0.3, 5.0):
        scalar = optimize_alpha(objective, 100, mult * math.pi)
        batched = optimize_alpha(objective, 100, mult * math.pi, batch_objective=batch)
        assert batched.alpha == scalar.alpha
        np.testing.assert_allclose(batched.objective, scalar.objective, rtol=1e-13)


def test_adaptive_curve_monotone_mode():
    objective = lambda sched: rsn_closed_form(BAND, sched)
    grid = np.geomspace(0.3, 10.0, 6) * math.pi / 0.1
    curve = adaptive_alpha_curve(objective, 10, grid, monotone=True)
    alphas = [p.alpha for p in curve]
    assert all(a2 <= a1 + 1e-9 for a1, a2 in zip(alphas, alphas[1:]))
    for p, t in zip(curve, grid):
        assert p.total_time == t


def test_adaptive_curve_requires_ascending_grid():
    objective = lambda sched: rsn_closed_form(BAND, sched)
    with pytest.raises(ValueError):
        adaptive_alpha_curve(objective, 10, np.array([5.0, 1.0]))


def test_rra_sigma_matches_analytic_mean():
    # single level at distance 1: per-shot residual is the cycle product,
    # whose half-normal average is known in closed form
    level = DiscreteSpectrum(energies=np.array([0.0, 1.0]),
                             weights=np.array([0.5, 0.5]))
    objective = lambda sched: rsn_quadrature(level, 0.0, sched) / 0.5
    n = 4
    opt = optimize_rra_sigma(objective, n, 8.0, OptimizationConfig(seed=3),
                             n_mc=600)
    expected = rra_average_success(1.0, opt.sigma, n)
    se = opt.shot_objectives.std() / math.sqrt(len(opt.shot_objectives))
    assert abs(opt.mean_objective - expected) < 4 * se + 1e-4
    np.testing.assert_allclose(opt.mean_total_time,
                               n * opt.sigma * math.sqrt(2 / math.pi), rtol=1e-12)


def test_rra_sigma_beats_far_widths():
    level = DiscreteSpectrum(energies=np.array([0.0, 1.0]),
                             weights=np.array([0.3, 0.7]))
    objective = lambda sched: rsn_quadrature(level, 0.0, sched)
    opt = optimize_rra_sigma(objective, 4, 8.0, OptimizationConfig(seed=3),
                             n_mc=300)
    sigma_c = (8.0 / 4) * math.sqrt(math.pi / 2)
    assert sigma_c / 30 <= opt.sigma <= 30 * sigma_c


def test_rra_batch_objective_scores_one_width_per_call():
    spectrum = DiscreteSpectrum(energies=np.array([0.0, 0.6, 1.0, 1.7]),
                                weights=np.array([0.4, 0.3, 0.2, 0.1]))
    objective = lambda sched: rsn_quadrature(spectrum, 0.0, sched)
    columns = []

    def batch(tm):
        columns.append(tm.shape[1])
        return rsn_quadrature_batch(spectrum, 0.0, tm)

    cfg = OptimizationConfig(seed=3)
    batched = optimize_rra_sigma(objective, 6, 12.0, cfg, n_mc=150, batch_objective=batch)
    scalar = optimize_rra_sigma(objective, 6, 12.0, cfg, n_mc=150)
    # widths are not stacked: a band integrand would size every width's
    # quadrature panels from the widest one
    assert len(columns) > 60 and all(c == 150 for c in columns)
    np.testing.assert_allclose(batched.sigma, scalar.sigma, rtol=1e-9)
    np.testing.assert_allclose(batched.mean_objective, scalar.mean_objective, rtol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizationConfig(budget=0)
    with pytest.raises(ValueError):
        OptimizationConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizationConfig(alpha_bounds=(2.0, 1.0))
