"""Schedule optimization.

Three searches: the full N-dimensional time optimization under a total
time budget (population-based differential evolution with restarts,
each polished by L-BFGS-B on the objective's gradient),
the one-dimensional geometric-ratio optimization (grid scan plus
golden-section refinement), and adaptive ratio curves across total-time
grids with an optional monotone constraint.

Constraint handling for the N-dimensional search: genes are square
roots of the times, so nonnegativity is built in, and any candidate
whose total exceeds the budget is rescaled uniformly onto the
boundary (optima saturate the budget, so the boundary is where the
search concentrates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import TimeSchedule, geometric_times

MAX_OPTIMIZE_N = 15
ALPHA_GRID_POINTS = 240
# Grid scans start this far above the open lower ratio bound.
ALPHA_FLOOR = 1e-4
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizationResult:
    """Best schedule found, its recomputed objective, and diagnostics.

    ``objective_calls`` and ``schedules_scored`` split the search's
    objective calls and the schedules they scored between the DE
    generations and the L-BFGS-B polish; ``evaluations_used`` is all the
    schedules scored."""

    best_schedule: TimeSchedule
    best_objective: float
    evaluations_used: int
    restart_bests: list
    converged: bool
    objective_calls: dict
    schedules_scored: dict


class _CountingObjective:
    """The searched objective in genes, the square roots of the times.

    Differential evolution calls it on one gene matrix (n_genes,
    population) per generation, scored in one objective call. The
    L-BFGS-B polish calls ``value_and_grad`` on one gene vector: the
    objective's value and time gradient at its schedule, carried to the
    genes by the chain rule of ``_times``. ``calls`` and ``scored`` count
    objective calls and schedules per phase; scored can exceed the budget,
    which bounds only the DE generations.
    """

    def __init__(self, objective, t_limit: float):
        self.objective = objective
        self.t_limit = t_limit
        self.calls = {"generations": 0, "polish": 0}
        self.scored = {"generations": 0, "polish": 0}

    def _times(self, genes: np.ndarray) -> np.ndarray:
        times = genes ** 2
        total = times.sum(axis=0)
        over = total > self.t_limit
        if np.any(over):
            scale = np.where(over, self.t_limit / np.where(total > 0, total, 1.0), 1.0)
            times = times * scale
        return times

    def __call__(self, genes: np.ndarray) -> np.ndarray:
        self.calls["generations"] += 1
        self.scored["generations"] += genes.shape[1]
        return self.objective(self._times(genes))

    def value_and_grad(self, genes: np.ndarray) -> tuple:
        """(value, gene gradient) of one gene vector. With t = g**2, and
        t_i = g_i**2 s, s = t_limit / sum g**2, over the budget:
        dt_i/dg_j = 2 g_j (s delta_ij - t_i / sum g**2)."""
        self.calls["polish"] += 1
        self.scored["polish"] += 1
        column = np.asarray(genes, dtype=float)[:, None]
        times = self._times(column)[:, 0]
        value, grad = self.objective.value_and_grad(times)
        total = float((column ** 2).sum(axis=0)[0])  # as _times sums it
        if total > self.t_limit:
            grad = self.t_limit / total * grad - float(grad @ times) / total
        return value, 2.0 * column[:, 0] * grad


def _superiteration_seeds(n_samples: int, t_limit: float, pop: int) -> np.ndarray:
    """Geometric-schedule gene rows used to seed the DE population."""
    ratios = 1.0 + np.geomspace(0.02, 1.0, min(12, max(2, pop // 4)))
    return np.sqrt(geometric_times(ratios, n_samples, t_limit).T)


def optimize_times(objective, n_samples: int, t_limit: float, *, budget: int = 60_000,
                   restarts: int = 5, seed: int = 0,
                   tolerance: float = 0.01) -> OptimizationResult:
    """Minimize the objective over all schedules with total <= t_limit.

    ``objective`` maps (n_samples, S) times to (S,) values, one call per
    DE generation, and its ``value_and_grad`` maps one schedule's
    (n_samples,) times to its value and time gradient (for a band,
    BandModel.objective()). Runs ``restarts`` independently seeded
    differential evolutions sharing ``budget`` schedule evaluations, each
    followed by an L-BFGS-B polish on ``value_and_grad``, one call per
    point it tries. The run has converged when the two best restarts
    agree to relative ``tolerance``. The reported
    schedule drops times below schedules.TIME_FLOOR and the objective is
    recomputed on it.
    """
    from scipy.optimize import differential_evolution, minimize

    if budget < 1 or restarts < 1:
        raise ValueError("budget and restarts must be positive")
    if not 0 < tolerance < 1:
        raise ValueError("tolerance must lie in (0, 1)")
    if not 1 <= n_samples <= MAX_OPTIMIZE_N:
        raise ValueError(f"n_samples must lie in [1, {MAX_OPTIMIZE_N}] for the dense search")
    if not t_limit > 0:
        raise ValueError("t_limit must be positive")

    pop = min(60, max(20, 6 * n_samples))
    per_restart = budget // restarts
    if per_restart < 2 * pop:
        raise ValueError(f"budget {budget} is below {2 * pop * restarts}, "
                         f"the minimum for {restarts} restarts of population {pop}")
    maxiter = max(1, per_restart // pop - 1)
    counter = _CountingObjective(objective, t_limit)
    bounds = [(0.0, math.sqrt(t_limit))] * n_samples

    def polish(_func, x0, *, bounds, constraints):
        # DE hands over its own callable, which has no gradient.
        return minimize(counter.value_and_grad, x0, jac=True, method="L-BFGS-B",
                        bounds=bounds)

    restart_bests = []
    best_genes, best_val = None, math.inf
    for r in range(restarts):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, r))))
        seeds = _superiteration_seeds(n_samples, t_limit, pop)
        filler = rng.uniform(0.0, math.sqrt(t_limit), size=(pop - len(seeds), n_samples))
        init = np.vstack([seeds, filler])
        res = differential_evolution(
            counter, bounds, init=init, maxiter=maxiter, tol=tolerance,
            seed=rng, mutation=(0.3, 0.9), recombination=0.8,
            polish=polish, updating="deferred", vectorized=True)
        restart_bests.append(float(res.fun))
        if res.fun < best_val:
            best_val, best_genes = float(res.fun), np.array(res.x)

    raw = counter._times(best_genes[:, None])[:, 0]
    schedule = TimeSchedule(times=raw).canonical()
    best_objective = float(objective(schedule.times[:, None])[0])
    ordered = sorted(restart_bests)
    if len(ordered) >= 2:
        spread = ordered[1] - ordered[0]
        converged = spread <= tolerance * max(abs(ordered[0]), 1e-300)
    else:
        converged = True
    return OptimizationResult(
        best_schedule=schedule,
        best_objective=best_objective,
        evaluations_used=sum(counter.scored.values()),
        restart_bests=restart_bests,
        converged=converged,
        objective_calls=dict(counter.calls),
        schedules_scored=dict(counter.scored),
    )


@dataclass(frozen=True)
class AlphaOptimum:
    """Ratio search outcome at one total time; flat marks an alpha-independent landscape."""

    total_time: float
    alpha: float
    objective: float
    flat: bool = False


def _ratio_search(objective, n_samples: int, total_time: float, grid, bounds: tuple):
    """One ratio search as a generator: it scores its grid, then yields each
    golden-section ratio, is sent that ratio's value, and returns its optimum."""
    vals = np.asarray(objective(geometric_times(grid, n_samples, total_time)), dtype=float)
    spread = float(vals.max() - vals.min())
    if spread <= 1e-12 * float(np.abs(vals).max()):
        return AlphaOptimum(total_time, 0.5 * (bounds[0] + bounds[1]), float(vals[0]), flat=True)
    k = int(np.argmin(vals))  # argmin takes the first, hence smallest, tied ratio
    a, b = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]

    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = (yield x1), (yield x2)
    while (b - a) > 1e-6 * a:
        if f1 <= f2:  # ties move toward the smaller ratio
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = yield x1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = yield x2
    return AlphaOptimum(total_time, float(x1 if f1 <= f2 else x2), float(min(f1, f2)))


def _optimize_alphas(objective, n_samples: int, totals, alpha_bounds: tuple) -> list:
    """optimize_alpha at each of ``totals``, in lockstep: each search makes
    its own grid call, then each golden-section step is one call holding
    the next ratio of every search still refining. The objective must score
    each column on its own; each search then returns what it returns alone."""
    lo, hi = alpha_bounds
    if not hi > lo >= 1.0:
        raise ValueError(f"alpha bounds must satisfy 1 <= low < high, got {(lo, hi)}")
    lo_excess = max(lo - 1.0, ALPHA_FLOOR * (hi - 1.0))
    grid = 1.0 + np.geomspace(lo_excess, hi - 1.0, ALPHA_GRID_POINTS)
    searches = [_ratio_search(objective, n_samples, float(t), grid, (lo, hi)) for t in totals]
    results, sent = [None] * len(totals), dict.fromkeys(range(len(totals)))
    while True:
        asked = {}  # the ratio each search still refining asks for
        for i, value in sent.items():
            try:
                asked[i] = searches[i].send(value)
            except StopIteration as done:
                results[i] = done.value
        if not asked:
            return results
        tm = geometric_times(list(asked.values()), n_samples, [totals[i] for i in asked])
        sent = dict(zip(asked, map(float, objective(tm))))


def optimize_alpha(objective, n_samples: int, total_time: float, *,
                   alpha_bounds: tuple = (1.0, 2.0)) -> AlphaOptimum:
    """Minimize the objective of the geometric schedule over the common ratio.

    ``objective`` maps (n_samples, S) geometric_times columns to (S,)
    values. Scores a grid of ALPHA_GRID_POINTS ratios log-spaced in
    (alpha - 1) across ``alpha_bounds`` in one call, then refines
    around the best point by golden-section, one column per step, to a
    relative precision of 1e-6. Ties resolve to the smaller ratio. A
    grid whose spread is at most 1e-12 of its largest magnitude is flat,
    however small its values: it returns the bounds midpoint with
    flat=True.
    """
    return _optimize_alphas(objective, n_samples, [total_time], alpha_bounds)[0]


def adaptive_alpha_curve(objective, n_samples: int, t_grid, monotone: bool = False, *,
                         alpha_bounds: tuple = (1.0, 2.0)) -> list:
    """Optimal ratio at each total time of an ascending grid.

    ``objective`` is optimize_alpha's (n_samples, S) -> (S,) callable,
    scoring each column on its own. The searches run in lockstep, unless
    monotone=True makes each search's upper ratio bound the previous
    optimum, encoding that the best ratio only falls as time grows. A
    flat search locates no optimum, so it leaves the bound as it was.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly ascending")
    if not monotone:
        return _optimize_alphas(objective, n_samples, t_grid, alpha_bounds)
    lo, hi = alpha_bounds
    points = []
    for t in t_grid:
        opt = optimize_alpha(objective, n_samples, float(t), alpha_bounds=(lo, hi))
        points.append(opt)
        if not opt.flat:
            hi = max(opt.alpha, lo + ALPHA_FLOOR * (alpha_bounds[1] - 1.0))
    return points
