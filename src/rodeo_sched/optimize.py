"""Schedule optimization.

Three searches: the full N-dimensional time optimization under a total
time budget (population-based differential evolution with restarts,
each polished by L-BFGS-B on the objective's gradient),
the one-dimensional geometric-ratio optimization (grid scan, then
Brent's parabolic steps with golden-section fallback, on log values),
and adaptive ratio curves across total-time grids with an optional
monotone constraint.

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

from .schedules import TimeSchedule, geometric_table, geometric_times, scale_table

MAX_OPTIMIZE_N = 15
ALPHA_GRID_POINTS = 240
# Grid scans start this far above the open lower ratio bound.
ALPHA_FLOOR = 1e-4
# Ratio refinement stops once its bracket [a, b] is within STOP_RTOL * a.
STOP_RTOL = 1e-6
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # the golden section's smaller part


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
    """Ratio search outcome at one total time: the ratio and the log of the
    objective there; flat marks an alpha-independent landscape."""

    total_time: float
    alpha: float
    log_objective: float
    flat: bool = False

    @property
    def objective(self) -> float:
        """exp(log_objective), formed as RodeoObjective.batch forms it."""
        return float(np.exp(self.log_objective))


# The counts _optimize_alphas adds to its ``work``: objective calls (the
# grids, then the lockstep refinement calls), the ratios the searches ask
# for by kind, and the searches that stop on a grid alone.
SEARCH_COUNTS = ("grid_calls", "refinement_calls", "parabolic_steps", "golden_steps",
                 "bound_tests", "flat_searches")


def _ratio_search(total_time: float, grid, bounds: tuple, work: dict):
    """One ratio search as a generator: it is sent its grid's log values,
    then yields each ratio it refines on, is sent that ratio's log value,
    and returns its optimum, counting its steps in ``work``.

    The bracket is the grid's best ratio and its two neighbours. A best
    ratio on the upper bound is tested first: the ratio a stop-rule step
    inside it is scored, and if that is strictly worse, the bound is the
    optimum. Otherwise Brent's method refines the bracket (Brent 1973,
    ch. 5), from the best ratio and its neighbours: each step is the
    minimum of the parabola through the three best ratios seen (the
    first through the grid's), or a golden-section step where that is
    not safe (a parabola outside the bracket, or one whose step is not
    under half the step before last). It stops once the bracket [a, b]
    is within STOP_RTOL a and its best ratio at most half of that from
    either end. Ties go to the smaller ratio, on the grid and after it."""
    vals = np.asarray((yield), dtype=float)
    if not -math.expm1(float(vals.min()) - float(vals.max())) > 1e-12:  # all -inf too
        work["flat_searches"] += 1
        return AlphaOptimum(total_time, 0.5 * (bounds[0] + bounds[1]), float(vals[0]), flat=True)
    k = int(np.argmin(vals))  # argmin takes the first, hence smallest, tied ratio
    last = len(grid) - 1
    a, b = float(grid[max(0, k - 1)]), float(grid[min(last, k + 1)])
    x, fx = float(grid[k]), float(vals[k])
    # w and v: the second and third best ratios seen, here the neighbours
    seen = sorted(((float(grid[j]), float(vals[j])) for j in (k - 1, k + 1) if 0 <= j <= last),
                  key=lambda pair: pair[1])
    (w, fw), (v, fv) = seen[0], seen[-1]
    if k == last and b - a > STOP_RTOL * a:
        work["bound_tests"] += 1
        u = x / (1.0 + STOP_RTOL)
        fu = yield u
        if fu > fx:
            return AlphaOptimum(total_time, x, fx)
        (v, fv), (w, fw), (x, fx) = (w, fw), (x, fx), (u, fu)
    # the last two steps: none yet, but the grid's three ratios make a
    # parabola, so the first step may take it
    d = e = b - a
    while True:
        tol = 0.25 * STOP_RTOL * a
        if max(x - a, b - x) <= 2.0 * tol:
            return AlphaOptimum(total_time, x, fx)
        middle = 0.5 * (a + b)
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p, q = (-p if q > 0 else p), abs(q)
        # the parabola's step, if it falls inside the bracket and is under
        # half the step before last; nan (an infinite value) fails too
        if abs(e) > tol and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            work["parabolic_steps"] += 1
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2.0 * tol:
                d = math.copysign(tol, middle - x)
        else:
            work["golden_steps"] += 1
            e = (a if x >= middle else b) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = yield u
        if fu < fx or (fu == fx and u < x):
            a, b = (x, b) if u >= x else (a, x)
            (v, fv), (w, fw), (x, fx) = (w, fw), (x, fx), (u, fu)
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                (v, fv), (w, fw) = (w, fw), (u, fu)
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _optimize_alphas(objective, n_samples: int, totals, alpha_bounds: tuple,
                     work: dict | None = None) -> list:
    """optimize_alpha at each of ``totals``, in lockstep: one grid call per
    search, in the order of the totals, then each refinement call holds
    the next ratio of every search still refining. The objective returns
    log values and must score each column on its own; each search then
    returns what it returns alone. The grids share one geometric table,
    which no grid outlives. ``work``, a dict, gains SEARCH_COUNTS."""
    lo, hi = alpha_bounds
    if not hi > lo >= 1.0:
        raise ValueError(f"alpha bounds must satisfy 1 <= low < high, got {(lo, hi)}")
    work = {} if work is None else work
    for key in SEARCH_COUNTS:
        work.setdefault(key, 0)
    lo_excess = max(lo - 1.0, ALPHA_FLOOR * (hi - 1.0))
    grid = 1.0 + np.geomspace(lo_excess, hi - 1.0, ALPHA_GRID_POINTS)
    totals = [float(t) for t in totals]
    searches = [_ratio_search(t, grid, (lo, hi), work) for t in totals]
    results = [None] * len(totals)

    def send(i, values, asked):
        """Send search i its values; record the ratio it asks for next in
        ``asked``, or its result once it returns."""
        try:
            asked[i] = searches[i].send(values)
        except StopIteration as done:
            results[i] = done.value

    asked = {}
    table = geometric_table(grid, n_samples)
    for i, t in enumerate(totals):
        next(searches[i])
        work["grid_calls"] += 1
        if i < len(totals) - 1:
            send(i, objective(scale_table(table, t)), asked)
        else:  # rebinding frees the table before the last grid is scored
            table = scale_table(table, t)
            send(i, objective(table), asked)
    del table
    while asked:
        refining, asked = asked, {}
        work["refinement_calls"] += 1
        values = objective(geometric_times(list(refining.values()), n_samples,
                                           [totals[i] for i in refining]))
        for i, value in zip(refining, map(float, values)):
            send(i, value, asked)
    return results


def optimize_alpha(objective, n_samples: int, total_time: float, *,
                   alpha_bounds: tuple = (1.0, 2.0), work: dict | None = None) -> AlphaOptimum:
    """Minimize the objective of the geometric schedule over the common ratio.

    ``objective`` maps (n_samples, S) geometric_times columns to the (S,)
    logs of their values (RodeoObjective.log_infidelity for a chain, the
    log of a band's residual): log values rank ratios whose values span
    many decades or underflow. Scores a grid of ALPHA_GRID_POINTS ratios
    log-spaced in (alpha - 1) across ``alpha_bounds`` in one call, then
    refines around the best point, one column per step, by Brent's
    parabolic steps with golden-section fallback, to a relative precision
    of STOP_RTOL; a best point on the upper bound that a step inside it
    does not beat is the optimum. Ties resolve to the smaller ratio. A
    grid whose smallest value is within 1e-12 of its largest, relative
    (-expm1(min - max) <= 1e-12 on the logs, or every value -inf), is
    flat, however small its values: it returns the bounds midpoint with
    flat=True. ``work``, a dict, gains the search's SEARCH_COUNTS.
    """
    return _optimize_alphas(objective, n_samples, [total_time], alpha_bounds, work)[0]


def adaptive_alpha_curve(objective, n_samples: int, t_grid, monotone: bool = False, *,
                         alpha_bounds: tuple = (1.0, 2.0), work: dict | None = None) -> list:
    """Optimal ratio at each total time of an ascending grid.

    ``objective`` is optimize_alpha's (n_samples, S) -> (S,) callable of
    log values, scoring each column on its own. The searches run in
    lockstep, unless monotone=True makes each search's upper ratio bound
    the previous optimum, encoding that the best ratio only falls as
    time grows. A flat search locates no optimum, so it leaves the bound
    as it was. ``work``, a dict, gains every search's SEARCH_COUNTS.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly ascending")
    if not monotone:
        return _optimize_alphas(objective, n_samples, t_grid, alpha_bounds, work)
    lo, hi = alpha_bounds
    points = []
    for t in t_grid:
        opt = optimize_alpha(objective, n_samples, float(t), alpha_bounds=(lo, hi), work=work)
        points.append(opt)
        if not opt.flat:
            hi = max(opt.alpha, lo + ALPHA_FLOOR * (alpha_bounds[1] - 1.0))
    return points
