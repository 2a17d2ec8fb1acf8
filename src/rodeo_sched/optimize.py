"""Derivative-free schedule optimization.

Four searches: the full N-dimensional time optimization under a total
time budget (population-based differential evolution with restarts),
the one-dimensional geometric-ratio optimization (grid scan plus
golden-section refinement), adaptive ratio curves across total-time
grids with an optional monotone constraint, and the Gaussian-random
baseline's width optimization by seeded Monte Carlo.

Constraint handling for the N-dimensional search: genes are square
roots of the times, so nonnegativity is built in, and any candidate
whose total exceeds the budget is rescaled uniformly onto the
boundary (optima saturate the budget, so the boundary is where the
search concentrates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import differential_evolution

from .closed_form import BandModel
from .schedules import (BASELINE_STREAM, TIME_FLOOR, TimeSchedule, geometric_times,
                        half_normal_draws, superiteration_schedule)
from .spectral import rsn_quadrature

MAX_OPTIMIZE_N = 15
ALPHA_GRID_POINTS = 240
# Grid scans start this far above the open lower ratio bound.
ALPHA_FLOOR = 1e-4
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizationConfig:
    """Search budget and reproducibility knobs shared by all searches."""

    budget: int = 60_000
    restarts: int = 5
    seed: int = 0
    tolerance: float = 0.01
    alpha_bounds: tuple = (1.0, 2.0)
    time_floor: float = TIME_FLOOR

    def __post_init__(self):
        if self.budget < 1 or self.restarts < 1:
            raise ValueError("budget and restarts must be positive")
        if not 0 < self.tolerance < 1:
            raise ValueError("tolerance must lie in (0, 1)")
        lo, hi = self.alpha_bounds
        if not hi > lo >= 1.0:
            raise ValueError(f"alpha_bounds must satisfy 1 <= low < high, got {self.alpha_bounds}")


@dataclass(frozen=True)
class OptimizationResult:
    """Best schedule found, its recomputed objective, and diagnostics."""

    best_schedule: TimeSchedule
    best_objective: float
    evaluations_used: int
    restart_bests: list
    converged: bool


class _CountingObjective:
    """Wraps scalar and batch objective routes behind one DE callable.

    Differential evolution in vectorized mode sends gene matrices of
    shape (n_genes, n_candidates); the polishing stage sends single
    1-D gene vectors. Both are counted against the evaluation budget.
    """

    def __init__(self, scalar_fn, batch_fn, t_limit: float):
        self.scalar_fn = scalar_fn
        self.batch_fn = batch_fn
        self.t_limit = t_limit
        self.count = 0

    def _times(self, genes: np.ndarray) -> np.ndarray:
        times = genes ** 2
        total = times.sum(axis=0)
        over = total > self.t_limit
        if np.any(over):
            scale = np.where(over, self.t_limit / np.where(total > 0, total, 1.0), 1.0)
            times = times * scale
        return times

    def __call__(self, genes: np.ndarray):
        genes = np.asarray(genes, dtype=float)
        if genes.ndim == 1:
            self.count += 1
            return self.scalar_fn(self._times(genes[:, None])[:, 0])
        self.count += genes.shape[1]
        return self.batch_fn(self._times(genes))


def _superiteration_seeds(n_samples: int, t_limit: float, pop: int) -> np.ndarray:
    """Geometric-schedule gene rows used to seed the DE population."""
    ratios = 1.0 + np.geomspace(0.02, 1.0, min(12, max(2, pop // 4)))
    return np.sqrt(geometric_times(ratios, n_samples, t_limit).T)


def optimize_times(band: BandModel | None, n_samples: int, t_limit: float,
                   cfg: OptimizationConfig | None = None, *,
                   objective=None, batch_objective=None) -> OptimizationResult:
    """Minimize surviving weight over all schedules with total <= t_limit.

    The default objective is rsn_quadrature on the band's
    quadrature_twin; pass ``objective`` (times -> value) and optionally
    ``batch_objective``
    ((n_samples, S) times -> (S,) values) to optimize another backend.
    Runs cfg.restarts independently seeded differential evolutions,
    each followed by a local polish; the reported schedule drops times
    below cfg.time_floor and the objective is recomputed on it.
    """
    cfg = cfg or OptimizationConfig()
    if not 1 <= n_samples <= MAX_OPTIMIZE_N:
        raise ValueError(f"n_samples must lie in [1, {MAX_OPTIMIZE_N}] for the dense search")
    if not t_limit > 0:
        raise ValueError("t_limit must be positive")
    if objective is None:
        if band is None:
            raise ValueError("either a band model or an explicit objective is required")
        twin = band.quadrature_twin()
        objective = lambda times: rsn_quadrature(twin, 0.0, TimeSchedule(times=times))
    if batch_objective is None:
        batch_objective = lambda tm: np.array([objective(tm[:, j]) for j in range(tm.shape[1])])

    pop = min(60, max(20, 6 * n_samples))
    per_restart = cfg.budget // cfg.restarts
    if per_restart < 2 * pop:
        raise ValueError(f"budget {cfg.budget} is below {2 * pop * cfg.restarts}, "
                         f"the minimum for {cfg.restarts} restarts of population {pop}")
    maxiter = max(1, per_restart // pop - 1)
    counter = _CountingObjective(objective, batch_objective, t_limit)
    bounds = [(0.0, math.sqrt(t_limit))] * n_samples

    restart_bests = []
    best_genes, best_val = None, math.inf
    for r in range(cfg.restarts):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, r))))
        seeds = _superiteration_seeds(n_samples, t_limit, pop)
        filler = rng.uniform(0.0, math.sqrt(t_limit), size=(pop - len(seeds), n_samples))
        init = np.vstack([seeds, filler])
        res = differential_evolution(
            counter, bounds, init=init, maxiter=maxiter, tol=cfg.tolerance,
            seed=rng, mutation=(0.3, 0.9), recombination=0.8,
            polish=True, updating="deferred", vectorized=True)
        restart_bests.append(float(res.fun))
        if res.fun < best_val:
            best_val, best_genes = float(res.fun), np.array(res.x)

    raw = counter._times(best_genes[:, None])[:, 0]
    schedule = TimeSchedule(times=raw).canonical(floor=cfg.time_floor)
    best_objective = float(objective(schedule.times))
    ordered = sorted(restart_bests)
    if len(ordered) >= 2:
        spread = ordered[1] - ordered[0]
        converged = spread <= cfg.tolerance * max(abs(ordered[0]), 1e-300)
    else:
        converged = True
    return OptimizationResult(
        best_schedule=schedule,
        best_objective=best_objective,
        evaluations_used=counter.count,
        restart_bests=restart_bests,
        converged=converged,
    )


@dataclass(frozen=True)
class AlphaOptimum:
    """Ratio search outcome; flat marks an alpha-independent landscape."""

    alpha: float
    objective: float
    flat: bool = False


def optimize_alpha(objective, n_samples: int, total_time: float,
                   cfg: OptimizationConfig | None = None, *,
                   alpha_bounds: tuple | None = None, batch_objective=None) -> AlphaOptimum:
    """Minimize objective(geometric schedule) over the common ratio.

    Scans a grid of ALPHA_GRID_POINTS ratios log-spaced in (alpha - 1)
    across cfg.alpha_bounds, then refines around the best point by
    golden-section to a relative precision of 1e-6. Ties resolve to
    the smaller ratio. A landscape flat across the whole grid returns
    the bounds midpoint with flat=True. ``objective`` takes a
    TimeSchedule; ``batch_objective``, if given, scores the whole grid
    in one call on its geometric_times matrix ((n_samples, S) -> (S,))
    and must agree with ``objective`` column by column.
    """
    cfg = cfg or OptimizationConfig()
    lo, hi = alpha_bounds if alpha_bounds is not None else cfg.alpha_bounds
    if not hi > lo >= 1.0:
        raise ValueError(f"alpha bounds must satisfy 1 <= low < high, got {(lo, hi)}")
    lo_excess = max(lo - 1.0, ALPHA_FLOOR * (hi - 1.0))
    grid = 1.0 + np.geomspace(lo_excess, hi - 1.0, ALPHA_GRID_POINTS)

    def value(alpha: float) -> float:
        return float(objective(superiteration_schedule(alpha, n_samples, total_time)))

    if batch_objective is None:
        vals = np.array([value(a) for a in grid])
    else:
        vals = np.asarray(batch_objective(geometric_times(grid, n_samples, total_time)),
                          dtype=float)
    spread = float(vals.max() - vals.min())
    if spread <= 1e-12 * max(1.0, float(np.abs(vals).max())):
        return AlphaOptimum(alpha=0.5 * (lo + hi), objective=float(vals[0]), flat=True)
    k = int(np.argmin(vals))  # argmin takes the first, hence smallest, tied ratio
    a, b = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]

    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = value(x1), value(x2)
    while (b - a) > 1e-6 * a:
        if f1 <= f2:  # ties move toward the smaller ratio
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = value(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = value(x2)
    alpha = x1 if f1 <= f2 else x2
    best = min(f1, f2)
    return AlphaOptimum(alpha=float(alpha), objective=float(best), flat=False)


@dataclass(frozen=True)
class CurvePoint:
    """One adaptive-curve entry: budget, best ratio, and its objective."""

    total_time: float
    alpha: float
    objective: float


def adaptive_alpha_curve(objective, n_samples: int, t_grid, monotone: bool = False,
                         cfg: OptimizationConfig | None = None, *,
                         batch_objective=None) -> list:
    """Optimal ratio at each total time of an ascending grid.

    With monotone=True each search's upper ratio bound is the previous
    optimum, encoding that the best ratio only falls as time grows.
    ``batch_objective`` is passed to each optimize_alpha call.
    """
    cfg = cfg or OptimizationConfig()
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly ascending")
    lo, hi = cfg.alpha_bounds
    points = []
    for t in t_grid:
        opt = optimize_alpha(objective, n_samples, float(t), cfg, alpha_bounds=(lo, hi),
                             batch_objective=batch_objective)
        points.append(CurvePoint(total_time=float(t), alpha=opt.alpha, objective=opt.objective))
        if monotone:
            hi = max(opt.alpha, lo + ALPHA_FLOOR * (cfg.alpha_bounds[1] - 1.0))
    return points


@dataclass(frozen=True)
class RraOptimum:
    """Gaussian-width search outcome with the shot distribution kept."""

    sigma: float
    mean_objective: float
    shot_objectives: np.ndarray = field(repr=False)
    mean_total_time: float = 0.0


def optimize_rra_sigma(objective, n_samples: int, total_time: float,
                       cfg: OptimizationConfig | None = None, *,
                       n_mc: int = 200, batch_objective=None) -> RraOptimum:
    """Optimize the Gaussian width of the random baseline.

    Times are sigma * |z| with z standard normal; a single seeded draw
    matrix is reused across widths (common random numbers), making the
    Monte Carlo mean smooth in sigma, and the width whose mean total
    time matches the budget anchors the scan range. Same grid plus
    golden-section strategy as the ratio search.
    """
    cfg = cfg or OptimizationConfig()
    if not total_time > 0 or n_samples < 1 or n_mc < 1:
        raise ValueError("total_time, n_samples, and n_mc must be positive")
    base = half_normal_draws(n_samples, n_mc, (cfg.seed, BASELINE_STREAM))

    if batch_objective is None:
        def shot_values(sigma: float) -> np.ndarray:
            return np.array([objective(TimeSchedule(times=sigma * col)) for col in base.T])
    else:
        def shot_values(sigma: float) -> np.ndarray:
            return batch_objective(sigma * base)

    def mean_value(sigma: float) -> float:
        return float(shot_values(sigma).mean())

    sigma_c = (total_time / n_samples) * math.sqrt(math.pi / 2.0)
    grid = np.geomspace(sigma_c / 30.0, sigma_c * 30.0, 60)
    vals = np.array([mean_value(s) for s in grid])
    k = int(np.argmin(vals))
    a, b = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = mean_value(x1), mean_value(x2)
    while (b - a) > 1e-4 * a:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = mean_value(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = mean_value(x2)
    sigma = float(x1 if f1 <= f2 else x2)
    shots = shot_values(sigma)
    return RraOptimum(
        sigma=sigma,
        mean_objective=float(shots.mean()),
        shot_objectives=shots,
        mean_total_time=n_samples * sigma * math.sqrt(2.0 / math.pi),
    )
