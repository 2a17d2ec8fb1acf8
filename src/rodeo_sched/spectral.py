"""Spectral functions and the quantities the rodeo filter acts on.

Each measurement cycle of duration t multiplies the weight of an energy
component E by cos((E - E_t) t / 2) ** 2, where E_t is the target
energy. The residual spectral norm (RSN) is the weight surviving on the
non-target part of the spectrum after a whole schedule. Spectra come in
two flavors: discrete (energies, weights) and continuous bands with a
named or tabulated density.

Every surviving-weight evaluation in the package goes through one
kernel, ``log_survival``: per-level sums of log cos**2 over the cycles,
batched over schedules. Log space keeps products that fall below the
smallest double (long schedules at T >> T0) finite and ordered. Cycles
short enough that every level's phase is at most SHORT_PHASE are summed
as the power series of log cos, without a per-phase call, in each
schedule that has enough of them to pay; geometric schedules spend most
of their cycles there. The rest take the direct path: log cos**2 x =
-log1p(tan**2 x) per phase, added in order (numpy's tan is vectorized
where its cos is not, and this form keeps its relative accuracy at tiny
phases, where cos rounds to 1). Levels on an evenly spaced grid
(``log_survival_grid``, the decay envelopes' windows) take their long
cycles by angle addition, with cos and sin called only at block starts
and block offsets. Large calls cut the (levels x schedules) plane into
tiles and run them on a thread pool over the CPUs in the process's
affinity mask (numpy's ufuncs release the GIL). A schedule's entries
depend on its own times and the levels alone: not on the tiling, nor on
the other schedules of the call.

Schedules floored to a Trotter step dt enter in one place,
``TrotterObjective``: it floors them to integer steps k, integrates each
distinct floored schedule once and scores it on the lattice path. That
path holds one table of the direct path's entries per kernel call, over
the levels and the call's distinct nonzero steps k, and sums each
schedule as a gather and an in-order add of its steps' entries, so each
cycle costs a lookup and an add; a batch's steps are ordered once, and
each of its calls reads an ordered slice of them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .quadrature import ABS_TOL, QuadratureError, _integrate_columns, integrate_oscillatory
from .schedules import TimeSchedule, trotter_steps

# Levels within this distance of the target energy, relative to the
# spectral scale max(1, |E_t|, max |E|), form the target manifold.
TARGET_RTOL = 1e-10
# Largest (cycles x levels x schedules) block the kernel holds at once;
# 2**16 doubles (512 kB) stay in cache and keep batched ratio grids from
# raising peak memory.
KERNEL_BLOCK_DOUBLES = 1 << 16
# Calls with at least this many direct phases (cycles x levels x
# schedules) run their tiles on the thread pool; smaller ones stay on the
# calling thread. Measured on a 2-core machine: a pool round trip takes
# 27-69 us, and a direct phase 5.3 ns, so 2**18 phases take about 1.5 ms
# serial. Two threads ran (121 levels, 240 schedules) calls in 1.3 of the
# serial time at 2**16 phases, 0.9-1.2 at 2**17, 0.85-0.97 at 2**18 and
# 0.65 at 2**20. In benchmark pairs 2**17 was slower on chain-curve and
# trotter-sweep (3 of 4 pairs each) and 2**19 on trotter-sweep (4 of 4).
# The 10**3-10**4-phase calls of band searches stay serial, and so does
# the lattice path of Trotter-floored schedules (trotter-sweep): of the
# benchmark's calls, chain-curve's ratio grids and long-horizon's
# 1000-cycle grid reach the pool.
PARALLEL_MIN_PHASES = 1 << 18
# A cycle of time t is short when SHORT_PHASE bounds its phase at every
# level: h |t| <= SHORT_PHASE with h = max |delta| / 2.
SHORT_PHASE = 0.5
# One column's share of the short-phase series' fixed cost, in direct
# phases (see _split_cycles). A call's fixed numpy calls take about 35 us
# on a prepared LevelSet, 45-50 us one-shot (one column of 64-512 levels
# and 100-400 short cycles, 2-core machine): 6,500-9,500 direct phases of
# 5.3 ns, which a ratio grid of 240 columns shares and a one-column call
# pays alone; the rule cannot tell the two apart. Timed on the benchmark
# workloads (in-process passes) when a direct phase cost a cos call of 24
# ns, 0 put band-optimize's one-column line searches on the series and
# 2**10 and up took it from trotter-sweep's grids, each 10-20% slower
# there, and chain-curve read the same from 2**8 to 2**10; at 5.3 ns,
# 2**11 with 18 per level or cycle was slower on trotter-sweep in 3 of 4
# benchmark pairs and faster on chain-curve in 3 of 4. trotter-sweep's
# grids now take the lattice path, which has no series, and
# band-optimize's 10-cycle calls fall below the rule: chain-curve's ratio
# grids and long-horizon's grid and decay windows take the series.
SERIES_MIN_PHASES = 1 << 9
# log_survival_grid's angle addition: levels per block (the offsets whose
# cos and sin one cycle needs), rows of blocks per tile, and long factors
# multiplied before each log. Timed on the two decay fits of the
# benchmark (theta up to 1e5, in-process, 2-core machine, one BLAS
# thread; 117-131 ms together as set here): blocks of 128 levels, tiles
# of 64 rows or groups of 16 read within 10% of that; blocks of 512-1024
# levels or groups of 4 read 10-25% slower.
GRID_BLOCK = 256
GRID_TILE_ROWS = 16
GRID_GROUP = 8
# Most entries the lattice path gathers and adds at once (_add_lattice).
# trotter-sweep's 125 kernel calls a pass, replayed in-process (2-core
# machine, numpy 2.4), took 16-16.5 ms in blocks of 2**15, 17-19.5 ms at
# 2**14, 17 ms at 2**16 and 20-24 ms at 2**12-2**13; within whole passes
# 2**15 and 2**16 read the same. Up to this many candidate steps (K + 1)
# the path also marks its distinct steps in a presence mask, whatever the
# steps read: the 73 of those calls with more candidates than steps read
# (one-column refinements) took 1.1 ms sorted and 0.35 ms marked.
LATTICE_BLOCK_DOUBLES = 1 << 15


def _log_cos_series(terms: int) -> np.ndarray:
    """b_1..b_terms of log cos x = sum_k b_k x**(2k), all negative. As
    -d/dx log cos x = tan x = sum_k T_k x**(2k-1) / (2k-1)! with the
    tangent numbers T_k, b_k = -T_k / (2k)!; and tan' = 1 + tan**2 gives
    T_1 = 1, T_(k+1) = sum_(i=1..k) C(2k, 2i-1) T_i T_(k+1-i)."""
    tangent = [1]
    for k in range(1, terms):
        tangent.append(sum(math.comb(2 * k, 2 * i - 1) * tangent[i - 1] * tangent[k - i]
                           for i in range(1, k + 1)))
    return np.array([-t / math.factorial(2 * k) for k, t in enumerate(tangent, start=1)])


# 16 terms leave a truncation error of 6.2e-18 relative at x = SHORT_PHASE
# (less at smaller x); every term has the same sign, so none cancels.
LOG_COS_SERIES = _log_cos_series(16)
# A short cycle with x**2 below this adds only its first series term.
TINY_SQUARE = 2.0 ** -60

# (pid, workers, executor or None), built by the first large call; a
# forked child sees another pid and builds its own.
_pool = None
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Point spectrum with nonnegative weights summing to at most 1."""

    energies: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.energies, dtype=float)).copy()
        w = np.atleast_1d(np.asarray(self.weights, dtype=float)).copy()
        if e.shape != w.shape or e.ndim != 1:
            raise ValueError("energies and weights must be matching 1-D arrays")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(w))):
            raise ValueError("energies and weights must be finite")
        if w.size and w.min() < 0:
            raise ValueError("weights must be nonnegative")
        if w.sum() > 1.0 + 1e-9:
            raise ValueError(f"weights sum to {w.sum()}, expected <= 1")
        e.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "weights", w)

    def levels(self, e_target: float, floor: float = 0.0) -> tuple:
        """(target, rest, dropped): the distinct levels in and outside the
        target manifold as (offsets E - E_t, log weights), either possibly
        empty, and the number of levels left out of both for weighing at or
        below ``floor``. Energies closer than target_mask's tolerance are one
        level, at their weight-averaged offset; a level no other energy joins
        keeps its offset bit for bit."""
        deltas = self.energies - e_target
        tol = _target_tolerance(self.energies, e_target)
        mask = target_mask(self.energies, e_target)
        sets, dropped = [], 0
        for part in (mask, ~mask):
            order = np.argsort(deltas[part])
            d, w = deltas[part][order], self.weights[part][order]
            group = np.cumsum(np.diff(d, prepend=-np.inf) > tol) - 1
            level_w = np.bincount(group, weights=w)
            keep = level_w > floor
            offsets = d[np.searchsorted(group, np.arange(len(level_w)))]
            merged = keep & (np.bincount(group) > 1)
            offsets[merged] = np.bincount(group, weights=d * w)[merged] / level_w[merged]
            sets.append((offsets[keep], np.log(level_w[keep])))
            dropped += np.count_nonzero(~keep)
        return (*sets, int(dropped))


@dataclass(frozen=True)
class ContinuousBand:
    """Band of spectral weight on [delta_min, delta_max].

    ``density`` is "constant", "gaussian" (shape exp(-E**2)), or an
    (M, 2) table of (energy, value) rows interpolated linearly. Named
    densities integrate to one by construction; a tabulated density is
    rescaled to unit weight at construction unless ``normalize`` is
    False, which BandModel.quadrature_twin uses for its deliberately
    unnormalized two-sided density.
    """

    delta_min: float
    delta_max: float
    density: Union[str, np.ndarray] = "constant"
    normalize: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.delta_min) and math.isfinite(self.delta_max)):
            raise ValueError("band edges must be finite")
        if not self.delta_max > self.delta_min:
            raise ValueError(
                f"delta_max must exceed delta_min, got [{self.delta_min}, {self.delta_max}]")
        if isinstance(self.density, str):
            if self.density not in ("constant", "gaussian"):
                raise ValueError(f"unknown density name: {self.density!r}")
            return
        table = np.asarray(self.density, dtype=float).copy()
        if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
            raise ValueError("tabulated density must be an (M, 2) array with M >= 2")
        if not np.all(np.isfinite(table)):
            raise ValueError("tabulated density must be finite")
        if np.any(np.diff(table[:, 0]) <= 0):
            raise ValueError("tabulated energies must be strictly increasing")
        if table[:, 1].min() < 0:
            raise ValueError("tabulated density values must be nonnegative")
        if self.normalize:
            norm = self._table_integral(table)
            if norm <= 0:
                raise ValueError("tabulated density integrates to zero")
            table[:, 1] /= norm
        table.flags.writeable = False
        object.__setattr__(self, "density", table)

    def _table_integral(self, table) -> float:
        grid = np.unique(np.concatenate(
            [[self.delta_min], table[:, 0], [self.delta_max]]))
        grid = grid[(grid >= self.delta_min) & (grid <= self.delta_max)]
        vals = np.interp(grid, table[:, 0], table[:, 1])
        return float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)))

    def density_values(self, energies) -> np.ndarray:
        e = np.asarray(energies, dtype=float)
        if isinstance(self.density, str):
            if self.density == "constant":
                return np.full_like(e, 1.0 / (self.delta_max - self.delta_min))
            norm = 0.5 * math.sqrt(math.pi) * (
                math.erf(self.delta_max) - math.erf(self.delta_min))
            return np.exp(-e ** 2) / norm
        return np.interp(e, self.density[:, 0], self.density[:, 1])

    def total_weight(self) -> float:
        if isinstance(self.density, str):
            return 1.0
        return self._table_integral(np.asarray(self.density))


SpectralFunction = Union[DiscreteSpectrum, ContinuousBand]


class LevelSet:
    """Level offsets ``deltas`` (L,), E - E_t, and their log weights, with
    what every kernel call on them shares made once: the half offsets, h =
    max |half|, the series' q-powers (made by _split_cycles when a column
    first takes the series) and, when every offset is 0, the log weight
    each column keeps. log_survival and log_surviving are its one-shot case."""

    def __init__(self, deltas, log_weights=()):
        self.deltas = np.asarray(deltas, dtype=float)
        self.log_weights = np.asarray(log_weights, dtype=float)
        self.half = 0.5 * self.deltas
        self.h = float(np.abs(self.half).max(initial=0.0))
        self._powers = self._flat = None
        if self.h == 0.0 and self.log_weights.size == self.half.size:
            self._flat = _log_weighted_sum(np.zeros((self.half.size, 1)), self.log_weights)

    def log_survival(self, times, work: dict | None = None) -> np.ndarray:
        """log_survival(deltas, times, work) of this set's offsets."""
        # Blocks are slices of rows, which a column-major matrix would
        # make strided, the kernel about twice as slow.
        tm = np.ascontiguousarray(times, dtype=float)
        out = np.zeros((self.half.size, tm.shape[1]))
        if out.size == 0 or tm.shape[0] == 0 or self.h == 0.0:
            return out
        order, groups, phases = _split_cycles(self, tm, out)
        parts = [(left, out[:, cols]) for cols, left in groups]
        if work is not None:
            _count(work, "series", phases)
            _count(work, "cos", sum(plane.size * left.shape[0] for left, plane in parts))
        _accumulate_tiles(self.half, parts)
        np.negative(out, out=out)
        return out if order is None else np.take(out, np.argsort(order), axis=1)

    def log_surviving(self, times) -> np.ndarray:
        """log_surviving(deltas, log_weights, times) of this set."""
        if self._flat is not None:
            return np.repeat(self._flat, np.shape(times)[1])
        return _log_weighted_sum(self.log_survival(times), self.log_weights)


def log_survival(deltas, times, work: dict | None = None) -> np.ndarray:
    """Per-level log filter products for a batch of schedules.

    ``deltas`` (L,) are level offsets E - E_t and ``times`` (N, S) holds
    one schedule per column; returns the (L, S) matrix of
    sum_n log cos**2(delta t_n / 2), zeros when L, N or S is 0 or when
    every offset is 0. A zero time adds exactly 0. The one-shot case of
    LevelSet(deltas).log_survival.

    A column's entries depend on its own times and on ``deltas`` alone,
    bit for bit, whatever other columns share the call. One step,
    _split_cycles, sums the short cycles (h |t| <= SHORT_PHASE, h = max
    |delta| / 2) of each column whose cost rule says it pays by the power
    series of log cos, truncated below 1e-17 relative (this changes the
    result in its last bits against the direct path), and groups every
    column's other cycles for the direct path, each group a slice of the
    columns of one plane; when the groups interleave, that plane holds the
    columns reordered by group, and one gather puts them back at the end.
    Every entry then adds the log1p(tan**2) = -log cos**2 of its cycles
    left one after another, in order, in blocks of at most
    KERNEL_BLOCK_DOUBLES phases, onto the series sums written scaled by
    -2, and the plane is negated once; a call with PARALLEL_MIN_PHASES
    phases or more left for the direct path runs its tiles on the thread
    pool. A direct phase is within about 3e-16 of log cos**2 relative,
    from 1e-150 up to 1e6, next to the poles and zeros of cos included.
    ``work``, a dict, gains the call's phases (level x cycle entries)
    summed by the series ("series") and by the direct path ("cos", a name
    kept from its first form; it counts the zeros kept in shared rows).
    """
    return LevelSet(deltas).log_survival(times, work)


def _count(work: dict, key: str, phases: int) -> None:
    work[key] = work.get(key, 0) + phases


def log_survival_grid(start: float, stop: float, count: int, times,
                      work: dict | None = None) -> np.ndarray:
    """log_survival of one schedule, ``times`` (N,), at the evenly spaced
    levels np.linspace(start, stop, count); returns (count,).

    Short cycles (h |t| <= SHORT_PHASE, h = max(|start|, |stop|) / 2) go
    through log_survival, its series and its bits. A long cycle's phase
    at level mB + i (B = GRID_BLOCK) is A_m + b_i, with A_m = x_mB t / 2
    at the block's first level and b_i = i step t / 2, step = (stop -
    start) / (count - 1); its cosine is cos A_m cos b_i - sin A_m sin
    b_i. So a cycle calls cos and sin at the block starts and the B
    offsets only, and each factor costs two multiplies and a subtract.
    The level x_mB + i step is the linspace level up to its rounding.
    GRID_GROUP factors are multiplied before one log: a computed |cos| is
    at least about 1e-17, so their product cannot underflow; a product
    that cancels to exactly 0 reads as the smallest normal double.
    ``work`` gains log_survival's counts and the long phases
    ("angle_addition").
    """
    levels = LevelSet(np.linspace(start, stop, count))
    tm = np.asarray(times, dtype=float).ravel()
    # A NaN time is long, so cos meets it and it propagates.
    short = np.abs(tm) <= (SHORT_PHASE / levels.h if levels.h else math.inf)
    out = levels.log_survival(tm[short][:, None], work)[:, 0]
    cycles = tm[~short]
    if cycles.size and count:
        step = (stop - start) / (count - 1) if count > 1 else 0.0
        _add_by_angle_addition(levels.deltas, step, 0.5 * cycles, out)
        if work is not None:
            _count(work, "angle_addition", count * cycles.size)
    return out


def _add_by_angle_addition(levels, step, half_t, out) -> None:
    """Add sum_k 2 log|cos(x_j half_t_k)| to ``out`` for the evenly spaced
    levels x_j, the phases split as in log_survival_grid. Per tile of
    GRID_TILE_ROWS blocks, a group's factors are one batched matrix
    product, [cos A_m, -sin A_m] times [cos b_i; sin b_i] per cycle, whose
    rows are then multiplied together before the log."""
    starts = np.multiply.outer(half_t, levels[::GRID_BLOCK])
    left = np.stack([np.cos(starts), -np.sin(starts)], axis=-1)
    width = min(GRID_BLOCK, levels.size)
    offsets = np.multiply.outer(half_t, np.arange(width) * step)
    right = np.stack([np.cos(offsets), np.sin(offsets)], axis=1)
    blocks = starts.shape[1]
    acc = np.zeros((blocks, width))
    factors = np.empty((GRID_GROUP, GRID_TILE_ROWS, width))
    product = np.empty((GRID_TILE_ROWS, width))
    tiny = np.finfo(float).tiny
    for r0 in range(0, blocks, GRID_TILE_ROWS):
        rows = acc[r0:r0 + GRID_TILE_ROWS]
        prod = product[:len(rows)]
        for g0 in range(0, half_t.size, GRID_GROUP):
            f = factors[:min(GRID_GROUP, half_t.size - g0), :len(rows)]
            np.matmul(left[g0:g0 + GRID_GROUP, r0:r0 + GRID_TILE_ROWS],
                      right[g0:g0 + GRID_GROUP], out=f)
            np.multiply.reduce(f, axis=0, out=prod)
            np.abs(prod, out=prod)
            np.maximum(prod, tiny, out=prod)
            np.log(prod, out=prod)
            rows += prod
    out += 2.0 * acc.ravel()[:levels.size]


def _split_cycles(levels: LevelSet, tm, out) -> tuple:
    """Write into ``out`` the short cycles' -2 sum_n log|cos(half t_n)| =
    -sum_n log cos**2 of each column of ``tm`` that takes the series (the
    sign and scale of _accumulate's sums) at the offsets of the LevelSet
    ``levels``, and return (order, groups, phases): the order of ``tm``'s
    columns that ``out`` holds, None for their own; the cycles left for
    the direct path as (columns, cycles) groups, each a slice of ``out``'s
    columns, none without a cycle; and the phases the series summed.

    The cost rule, in direct phases (one level of one cycle, about 5.3
    ns): the series saves a column one per level for each short cycle (h
    |t| <= SHORT_PHASE, h = max |half|) and costs about four per (level or
    cycle), plus SERIES_MIN_PHASES, the column's share of the call's fixed
    numpy calls (measured in a call of 240 series columns: about 7 per
    cycle, under 1 per level; about 35 us a one-column call on a prepared
    set). It reads nothing of the other columns, so a column takes the
    same path alone as in any batch. With x = h t and q = (half / h)**2, a
    column's short sum of log|cos| is sum_j LOG_COS_SERIES[j] q**(j+1) P_j
    over its power sums P_j = sum_n x_n**(2j+2). Its other cycles' |t|
    sort to the bottom, zeros above. Series columns with about as many
    short cycles group together (bands of an eighth of the cycles) and
    drop the rows of zeros they share; a zero adds exactly 0, so no
    column's sum depends on its group, and a band left with no rows is no
    group. The other columns form one group, their times as given. Each
    column's group key is -1 when it goes direct, else its band; when the
    keys are not in order, the columns are reordered once, stably by key,
    so that every group, the direct one first, is one slice of the plane;
    a one-column call needs no key.
    """
    half, h, (cycles, cols) = levels.half, levels.h, tm.shape
    least = max(1, math.ceil((SERIES_MIN_PHASES + 4 * (half.size + cycles)) / half.size))
    take = np.zeros(cols, dtype=bool)
    if least <= cycles and h < math.inf:
        # Two comparisons rather than abs: no float temporary of the matrix.
        short = tm <= SHORT_PHASE / h
        short &= tm >= -SHORT_PHASE / h
        counts = short.sum(axis=0)
        take = counts >= least
    first = cols - int(np.count_nonzero(take))
    order, groups, phases = None, [], 0
    if first < cols:
        cuts = [0, cols - first]
        if cols > 1:
            key = np.where(take, (counts - counts[take].min()) // max(1, cycles // 8), -1)
            if (key[1:] < key[:-1]).any():
                order = np.argsort(key, kind="stable")
                key, counts = key[order], counts[order]
                tm, short = np.take(tm, order, axis=1), np.take(short, order, axis=1)
            key = key[first:]
            cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), key.size]
        series = out[:, first:]
        tm_s, short, counts = tm[:, first:], short[:, first:], counts[first:]
        phases = half.size * int(counts.sum())
        coeff = _power_sums(tm_s, short, h) * (-2.0 * LOG_COS_SERIES)
        # Powers of q for fixed blocks of levels (a set of one block keeps
        # them once they are filled, and no call writes kept powers), then one
        # matrix-vector product per column: every column meets the same BLAS
        # call on the same block, so its entries do not depend on the column
        # count (a matrix product would, by its shape).
        rows, powers = KERNEL_BLOCK_DOUBLES // LOG_COS_SERIES.size, levels._powers
        buf = np.empty((LOG_COS_SERIES.size, min(rows, half.size))) if powers is None else powers
        for start in range(0, half.size, rows):
            q = buf[:, :min(rows, half.size - start)]
            if powers is None:
                np.divide(half[start:start + rows], h, out=q[0])
                np.square(q[0], out=q[0])
                _fill_powers(q)
            chunk = max(1, KERNEL_BLOCK_DOUBLES // q.shape[1])
            for c in range(0, series.shape[1], chunk):
                products = np.matmul(q.T, coeff[c:c + chunk, :, None])
                series[start:start + rows, c:c + chunk] = products[:, :, 0].T
        levels._powers = buf if half.size <= rows else None
        # A NaN time sorts last, so it stays and propagates as it would.
        left = np.abs(tm_s)
        np.copyto(left, 0.0, where=short)
        left.sort(axis=0)
        groups = [(slice(first + a, first + b), left[int(counts[a:b].min()):, a:b])
                  for a, b in zip(cuts, cuts[1:]) if counts[a:b].min() < cycles]
    if first:
        groups.append((slice(0, first), tm[:, :first]))
    return order, groups, phases


def _power_sums(tm, short, h) -> np.ndarray:
    """(S, len(LOG_COS_SERIES)) power sums P_j = sum_n (h t_n)**(2j+2)
    over each column's short cycles. A column's powers lie in contiguous
    rows that numpy sums by its pairwise rule, over blocks of cycles fixed
    by N alone, so a column's sums do not depend on the other columns.
    Columns go in chunks of at most KERNEL_BLOCK_DOUBLES powers."""
    terms, (cycles, cols) = LOG_COS_SERIES.size, tm.shape
    squares = np.multiply(tm.T, short.T, order="C")
    squares *= h
    np.square(squares, out=squares)
    sums = np.zeros((cols, terms))
    block = min(cycles, KERNEL_BLOCK_DOUBLES // terms)
    chunk = max(1, KERNEL_BLOCK_DOUBLES // (terms * block))
    buf = np.empty((terms, min(chunk, cols), block))
    for c in range(0, cols, chunk):
        for start in range(0, cycles, block):
            x2 = squares[c:c + chunk, start:start + block]
            powers = buf[:, :len(x2), :x2.shape[1]]
            # Below x**2 = TINY_SQUARE a cycle's terms past the first are
            # under 2**-60 of it; zero there, they spare the powers
            # subnormal arithmetic, which runs about a hundred times slower.
            np.multiply(x2, x2 >= TINY_SQUARE, out=powers[0])
            _fill_powers(powers)
            powers[0] = x2
            sums[c:c + chunk] += powers.sum(axis=2).T
    return sums


def _fill_powers(p) -> None:
    """Set p[j] = p[0] ** (j + 1) along the first axis, doubling the
    filled rows with each multiplication."""
    done = 1
    while done < len(p):
        n = min(done, len(p) - done)
        np.multiply(p[:n], p[done - 1], out=p[done:done + n])
        done += n


def _accumulate(half, tm, rows, out) -> None:
    """Add sum_n log1p(tan**2(half t_n)) = -sum_n log cos**2(half t_n) to
    ``out`` (l, s) for levels ``half`` (l,) and schedule columns ``tm``
    (N, s), one cycle after another in order, ``rows`` cycles per block.
    A zero time adds exactly 0 and a NaN propagates. A block's first row
    takes the sums so far (x + y is y + x, bit for bit), and numpy adds a
    block's rows in order when a row holds two or more entries; a
    one-entry plane, which numpy would sum pairwise, is computed as two
    copies of its level."""
    if out.size == 1:
        pair = np.repeat(out, 2, axis=0)
        _accumulate(np.repeat(half, 2), tm, rows, pair)
        out[...] = pair[:1]
        return
    buf = np.empty((min(rows, tm.shape[0]),) + out.shape)
    h = half[:, None]
    for start in range(0, tm.shape[0], rows):
        phase = buf[:min(rows, tm.shape[0] - start)]
        # The times copied in, then scaled in place: numpy buffers a
        # broadcast product of two operands into a third.
        phase[...] = tm[start:start + rows, None, :]
        phase *= h
        np.tan(phase, out=phase)
        np.square(phase, out=phase)
        np.log1p(phase, out=phase)
        phase[0] += out
        np.add.reduce(phase, axis=0, out=out)


def _accumulate_tiles(half, parts) -> None:
    """_accumulate over tiles of the (levels, schedules) planes of
    ``parts``, (cycles, plane) pairs: whole rows of a plane while they
    fit, at most KERNEL_BLOCK_DOUBLES entries each, and one tile per
    worker of a plane large enough for the pool. The tiles of all planes
    run on the pool when their phases together reach PARALLEL_MIN_PHASES."""
    cap = KERNEL_BLOCK_DOUBLES
    phases = sum(out.size * tm.shape[0] for tm, out in parts)
    workers, pool = _kernel_pool() if phases >= PARALLEL_MIN_PHASES else (1, None)
    tiles = []
    for tm, out in parts:
        levels, cols = out.shape
        want = workers if out.size * tm.shape[0] >= PARALLEL_MIN_PHASES else 1
        # cycles per block: the blocks of a plane's tiles together hold at
        # most KERNEL_BLOCK_DOUBLES phases
        rows = max(1, cap // out.size)
        n_rows = min(levels, max(want, -(-out.size // cap)))
        n_cols = min(cols, max(-(-want // n_rows), -(-cols // max(1, cap // -(-levels // n_rows)))))
        row_cuts = [levels * i // n_rows for i in range(n_rows + 1)]
        col_cuts = [cols * i // n_cols for i in range(n_cols + 1)]
        tiles += [(half[r0:r1], tm[:, c0:c1], rows, out[r0:r1, c0:c1])
                  for r0, r1 in zip(row_cuts, row_cuts[1:])
                  for c0, c1 in zip(col_cuts, col_cuts[1:])]
    if pool is None or len(tiles) == 1:
        for tile in tiles:
            _accumulate(*tile)
        return
    for future in [pool.submit(_accumulate, *tile) for tile in tiles]:
        future.result()


class _Lattice(NamedTuple):
    """The integer steps of a batch of schedules on one lattice, ordered
    once (_lattice_plan)."""

    steps: np.ndarray   # (N, S) intp, C-ordered, the columns longest first
    length: np.ndarray  # (S,) each column's rows up to its last nonzero step
    order: np.ndarray   # (S,) the batch column of each planned column


def _lattice_plan(steps) -> _Lattice:
    """The _Lattice of integer steps (N, S): a column's length is its rows
    up to its last nonzero step, and the columns go longest first (a
    stable order), so the columns of any increasing selection that row r
    reaches are a prefix of it. The work runs on steps.T, one schedule per
    row, which is contiguous when the caller holds its schedules as rows
    (schedule-fit's keys do)."""
    rows = steps.T
    length = np.zeros(len(rows), dtype=np.intp)
    if rows.shape[1]:
        nonzero = rows != 0
        length = np.where(nonzero.any(axis=1), rows.shape[1] - nonzero[:, ::-1].argmax(axis=1), 0)
    order = np.argsort(-length, kind="stable")
    return _Lattice(np.ascontiguousarray(np.take(rows, order, axis=0).T), length[order], order)


def _lattice_survival(half, plan, cols, step, work) -> np.ndarray:
    """log_survival of the schedules fl(k step) for levels ``half`` (half
    the offsets), over the columns ``cols`` of ``plan``, an increasing
    index array: (L, len(cols)), in that order. Every column takes the
    lattice path, _add_lattice, whose entries are those of log_survival's
    direct path on every cycle, bit for bit (no series); it computes at
    most min(K + 1, N S) table rows. ``work`` gains the table entries
    ("lattice") and the entries gathered ("gathered", one per level for
    each step up to a column's last nonzero step)."""
    out = np.zeros((half.size, len(cols)))
    if out.size == 0 or len(plan.steps) == 0 or not np.count_nonzero(half):
        return out
    length = plan.length[cols]
    # A private C-ordered copy, cut after the longest column: _add_lattice
    # may write over it, and the plan serves the batch's other calls.
    steps = np.take(plan.steps[:length[0]], cols, axis=1)
    entries = _add_lattice(half, steps, length, step, out)
    _count(work, "lattice", entries)
    _count(work, "gathered", half.size * int(length.sum()))
    np.negative(out, out=out)
    return out


def _add_lattice(half, steps, length, step, out) -> int:
    """Write into ``out`` (l, S), zeros on entry, sum_n log1p(tan**2(half
    fl(k_n step))) over the integer steps k_n of each column of ``steps``
    (n, S), added in order as _accumulate adds them over the times
    fl(k_n step); return the table entries computed at nonzero steps.

    ``length`` holds each column's rows up to its last nonzero step,
    non-increasing: the columns come longest first, as a _Lattice orders
    them, and ``steps`` holds rows up to the longest. So the columns that
    row r reaches are a prefix, and no step past a column's length is
    read; a zero step within it adds the table's exact 0. ``steps`` may be
    written over. The table holds each level's entry at each distinct step
    read, the direct path's ufuncs on the same products; a presence mask
    finds the steps while K + 1 is at most the steps read or
    LATTICE_BLOCK_DOUBLES, a sort beyond.
    Levels go in tiles of at least two: a tile's table and its sums (S per
    level) hold at most KERNEL_BLOCK_DOUBLES entries each where two levels
    allow. A tile's rows of entries are gathered and added one after
    another, in blocks of at most LATTICE_BLOCK_DOUBLES entries or one
    row. numpy adds a block's rows in order when a row holds two or more
    entries, so a one-level call is computed as two copies of its level
    (as _accumulate computes a one-entry plane)."""
    if out.shape[0] == 1:
        pair = np.repeat(out, 2, axis=0)
        entries = _add_lattice(np.repeat(half, 2), steps, length, step, pair)
        out[...] = pair[:1]
        return entries // 2
    top = int(steps.max(initial=0))
    # The mask and its row map hold K + 1 entries: at most one per step read
    # or per gather block. Sorting a one-column call's hundred steps costs
    # more than marking them in a mask of thousands.
    if top < max(steps.size, LATTICE_BLOCK_DOUBLES):
        present = np.zeros(top + 1, dtype=bool)
        present[steps] = True
        distinct = np.flatnonzero(present)
        row = np.empty(present.size, dtype=np.intp)
        row[distinct] = np.arange(distinct.size)
        index = np.take(row, steps)
    else:
        # np.unique's inverse with fewer temporaries: each step's rank
        # among the distinct steps is written over it
        flat = steps.ravel()
        by_step = np.argsort(flat)
        ranks = flat[by_step]
        first = np.empty(ranks.size, dtype=bool)
        first[:1] = True
        np.not_equal(ranks[1:], ranks[:-1], out=first[1:])
        distinct = ranks[first]
        np.cumsum(first, out=ranks)
        ranks -= 1
        flat[by_step] = ranks
        # the ranks, whether ravel gave a view of steps or a copy
        index = flat.reshape(steps.shape)
    # active[r]: the columns that row r reaches
    active = np.searchsorted(-length, -np.arange(length[0]), side="left")
    times = (distinct * step)[:, None]
    levels, cols = out.shape
    per_tile = max(2, KERNEL_BLOCK_DOUBLES // max(times.size, cols))
    tiles = max(1, min(levels // 2, -(-levels // per_tile)))
    cuts = [levels * i // tiles for i in range(tiles + 1)]
    for l0, l1 in zip(cuts, cuts[1:]):
        table = np.empty((times.size, l1 - l0))
        table[...] = times
        table *= half[l0:l1]
        np.tan(table, out=table)
        np.square(table, out=table)
        np.log1p(table, out=table)
        sums = np.zeros((cols, l1 - l0))
        buf = np.empty(max(LATTICE_BLOCK_DOUBLES, sums.size))
        r0 = 0
        while r0 < len(active):
            n = int(active[r0])
            r1 = min(len(active), r0 + max(1, LATTICE_BLOCK_DOUBLES // (n * (l1 - l0))))
            gathered = buf[:(r1 - r0) * n * (l1 - l0)].reshape(r1 - r0, n, l1 - l0)
            # Every index is in range; "clip" spares the bounds check.
            np.take(table, index[r0:r1, :n], axis=0, mode="clip", out=gathered)
            gathered[0] += sums[:n]
            np.add.reduce(gathered, axis=0, out=sums[:n])
            r0 = r1
        out[l0:l1] = sums.T
    return levels * int(np.count_nonzero(distinct))


def _kernel_pool():
    """(workers, executor) of this process: one thread per CPU in the
    affinity mask, no executor when that is one CPU."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            if hasattr(os, "sched_getaffinity"):
                workers = len(os.sched_getaffinity(0))
            else:
                workers = os.cpu_count() or 1
            executor = ThreadPoolExecutor(workers) if workers > 1 else None
            _pool = (os.getpid(), workers, executor)
        return _pool[1], _pool[2]


def log_surviving(deltas, log_weights, times) -> np.ndarray:
    """log of the surviving weight sum_k w_k prod_n cos**2(delta_k t_n / 2)
    of each column of ``times`` (N, S), (S,), zero weights (log -inf) and
    an empty set allowed: LevelSet(deltas, log_weights).log_surviving."""
    return LevelSet(deltas, log_weights).log_surviving(times)


def _log_weighted_sum(logs, log_weights) -> np.ndarray:
    """log sum_k exp(logs[k] + log_weights[k]) of each column of ``logs``
    (L, S), shifted by the column's largest term; written over ``logs``."""
    logs += np.asarray(log_weights, dtype=float)[:, None]
    peak = np.max(logs, axis=0, initial=-np.inf)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    # Each column's terms in a contiguous row: numpy sums a row the same
    # way whatever the column count, and a column of a matrix another way.
    terms = np.subtract(logs.T, shift[:, None], order="C")
    np.exp(terms, out=terms)
    with np.errstate(divide="ignore"):
        return shift + np.log(terms.sum(axis=1))


def survival_product(energies, e_target: float, schedule: TimeSchedule) -> np.ndarray:
    """Product of cycle survival factors at each energy (the exponential
    of the log_survival kernel). No command calls it; it stays because
    bench/tracing.py looks it up by name."""
    e = np.asarray(energies, dtype=float)
    logs = log_survival(e.ravel() - e_target, schedule.times[:, None])
    return np.exp(logs[:, 0]).reshape(e.shape)


def _target_tolerance(energies: np.ndarray, e_target: float) -> float:
    return TARGET_RTOL * max(1.0, abs(e_target), float(np.max(np.abs(energies), initial=0.0)))


def target_mask(energies, e_target: float) -> np.ndarray:
    """Levels forming the target manifold: within TARGET_RTOL of the
    target, relative to the scale max(1, |E_t|, max |E|)."""
    e = np.asarray(energies, dtype=float)
    return np.abs(e - e_target) <= _target_tolerance(e, e_target)


def level_gap(energies, e_target: float) -> float:
    """Distance from the target manifold to the nearest other level."""
    e = np.asarray(energies, dtype=float)
    mask = target_mask(e, e_target)
    if mask.all():
        raise ValueError("every level lies in the target manifold; no gap exists")
    return float(np.abs(e[~mask] - e_target).min())


def target_gap(spectrum: SpectralFunction, e_target: float) -> float:
    """Distance from the target energy to the nearest non-target weight:
    the nearest level off the target manifold, or the nearer edge of a
    band, which must not contain the target."""
    if isinstance(spectrum, DiscreteSpectrum):
        return level_gap(spectrum.energies, e_target)
    lo, hi = spectrum.delta_min, spectrum.delta_max
    if lo <= e_target <= hi:
        raise ValueError(
            f"target energy {e_target} must lie strictly outside the band [{lo}, {hi}]")
    return min(abs(lo - e_target), abs(hi - e_target))


def rsn_quadrature_batch(spectrum: SpectralFunction, e_target: float, times,
                         *, abs_tol: float = ABS_TOL) -> np.ndarray:
    """Residual spectral norm of each schedule column of ``times`` (N, S);
    returns (S,). Zero times are exact no-ops, so Trotter-floored
    schedules of unequal length can share one zero-padded matrix.

    For a band each column integrates density(E) * prod_n cos((E - E_t)
    t_n / 2)**2 with the oscillation-budgeted panel rule to ``abs_tol``,
    its phase rate being its own total; columns on the same starting
    panels share the first-round kernel call, and a column that refines
    does so alone. For a discrete spectrum the non-target levels are
    summed in log space, as a chain objective's are. A column of zeros
    returns the initial non-target weight.

    A column's value is the bits of its one-column call, whatever other
    columns share the call: the kernel and the integrator read nothing of
    a column's neighbours.
    """
    tm = np.asarray(times, dtype=float)
    return _residuals(spectrum, e_target, tm,
                      lambda deltas, cols: log_survival(deltas, tm[:, cols]), abs_tol)


def _residuals(spectrum, e_target, tm, survival, abs_tol, order=slice(None)) -> np.ndarray:
    """rsn_quadrature_batch of the schedules ``tm`` (N, S), each kernel
    call made by ``survival(deltas, cols)``: the (L, len(cols))
    log_survival of the integrator's columns ``cols``, an increasing index
    array. The integrator's column j is column order[j] of ``tm``; the
    values, and a failure's estimates and bounds, come back in ``tm``'s
    order."""
    every = np.arange(tm.shape[1])
    values = np.empty(tm.shape[1])
    if isinstance(spectrum, DiscreteSpectrum):
        _, (deltas, log_weights), _ = spectrum.levels(e_target)
        values[order] = np.exp(_log_weighted_sum(survival(deltas, every), log_weights))
        return values
    target_gap(spectrum, e_target)  # rejects a target inside the band
    lo, hi = spectrum.delta_min, spectrum.delta_max

    def integrand(e, cols):
        return spectrum.density_values(e)[:, None] * np.exp(survival(e - e_target, cols))

    # Each total summed as a contiguous row: the same bits for any column count.
    rates = np.ascontiguousarray(tm.T).sum(axis=1)[order]
    if tm.shape[1] == 1:
        # The one-column case of the integrator, with the batch path's
        # bits; kept only because bench/tracing.py sees band integrals
        # through integrate_oscillatory.
        value, _ = integrate_oscillatory(lambda e: integrand(e, every)[:, 0], lo, hi,
                                         phase_rate=float(rates[0]), abs_tol=abs_tol)
        return np.array([value])
    try:
        values[order] = _integrate_columns(integrand, lo, hi, rates, abs_tol)[0]
    except QuadratureError as exc:
        estimate, bound = np.empty_like(values), np.empty_like(values)
        estimate[order], bound[order] = exc.estimate, exc.error_bound
        raise QuadratureError(str(exc), estimate, bound) from None
    return values


@dataclass
class TrotterObjective:
    """schedule-fit's search objective on a Trotter step ``dt``: called on
    unrounded (N, S) schedule columns, each below 2**53 steps, it gives
    the (S,) residuals of their floors trotter_floor(times, dt), as
    rsn_quadrature_batch gives them to ABS_TOL.

    Flooring makes the objective piecewise constant in the ratio, so a
    search's golden steps and grid columns repeat schedules. A column's
    residual is the bits of its one-column call, so each distinct floored
    schedule is integrated once in the objective's life, keyed by the
    bytes of its integer steps: one void view of the schedules as rows
    (np.unique(axis=1) costs more than the duplicates). The new schedules
    are planned once (_lattice_plan: longest first) and go to the
    integrator in that order, with their times k dt (trotter_floor's
    bits) for the phase rates; every kernel call takes the lattice path.
    ``work`` gains the schedules scored and integrated, and each kernel
    call ("kernel_calls") with its counts (_lattice_survival's), from 0.
    """

    spectrum: SpectralFunction
    e_target: float
    dt: float
    work: dict = field(default_factory=dict)
    _known: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for key in ("schedules_scored", "schedules_integrated", "lattice", "gathered",
                    "kernel_calls"):
            self.work.setdefault(key, 0)

    def __call__(self, times) -> np.ndarray:
        steps = np.ascontiguousarray(trotter_steps(times, self.dt).T, dtype=np.intp)
        _count(self.work, "schedules_scored", steps.shape[0])
        keys = steps.view((np.void, steps.itemsize * steps.shape[1])).ravel().tolist()
        new = [key for key in dict.fromkeys(keys) if key not in self._known]
        if new:
            _count(self.work, "schedules_integrated", len(new))
            distinct = np.frombuffer(b"".join(new), dtype=np.intp).reshape(len(new), -1).T
            plan = _lattice_plan(distinct)

            def survival(deltas, cols):
                _count(self.work, "kernel_calls", 1)
                half = 0.5 * np.asarray(deltas, dtype=float)
                return _lattice_survival(half, plan, cols, self.dt, self.work)

            self._known.update(zip(new, _residuals(self.spectrum, self.e_target, distinct * self.dt,
                                                   survival, ABS_TOL, plan.order)))
        return np.fromiter(map(self._known.__getitem__, keys), float, len(keys))


def rsn_quadrature_value_and_grad(band: ContinuousBand, e_target: float, times) -> tuple:
    """Residual spectral norm of one schedule ``times`` (N,) on a band and
    its gradient in the times: (value, (N,) gradient).

    One integration of N + 1 columns, all at the schedule's total as
    phase rate: column 0 is rsn_quadrature_batch's integrand, with the
    bits of its one-column call, and column n is the derivative under the
    integral, density(E) * (-d/2) sin(d t_n) prod_{m != n} cos**2(d t_m / 2)
    with d = E - E_t. Since d/dt cos**2(d t / 2) = -d tan(d t / 2)
    cos**2(d t / 2), column n is column 0 times -d tan(d t_n / 2): the
    product over every cycle is taken once, in log space by the survival
    kernel. A double phase has a finite tan, so every column is finite,
    and a zero time's column is 0. Each column is refined to ABS_TOL on
    its own.
    """
    t = np.asarray(times, dtype=float)
    tm = t[:, None]
    target_gap(band, e_target)  # rejects a target inside the band

    def integrand(e, cols):
        d = (e - e_target)[:, None]
        value = band.density_values(e)[:, None] * np.exp(log_survival(d[:, 0], tm))
        factor = -d * np.tan(0.5 * d * t[cols - 1])
        factor[:, cols == 0] = 1.0  # column 0 is the value itself
        return value * factor

    rate = np.ascontiguousarray(tm.T).sum(axis=1)  # as rsn_quadrature_batch sums it
    values, _ = _integrate_columns(integrand, band.delta_min, band.delta_max,
                                   np.repeat(rate, len(t) + 1), ABS_TOL)
    return float(values[0]), values[1:]


def rsn_quadrature(spectrum: SpectralFunction, e_target: float,
                   schedule: TimeSchedule, *, abs_tol: float = ABS_TOL) -> float:
    """Residual spectral norm of one schedule: the one-column case of
    rsn_quadrature_batch. An empty schedule returns the initial
    non-target weight."""
    return float(rsn_quadrature_batch(spectrum, e_target, schedule.times[:, None],
                                      abs_tol=abs_tol)[0])


def load_spectrum_csv(path) -> DiscreteSpectrum:
    """Read a discrete spectrum from CSV rows of energy,weight.

    A header row and at least one data row are required; malformed rows
    raise with the line and field that failed.
    """
    energies, weights = [], []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        try:
            float(header[0])
        except (ValueError, IndexError):
            pass
        else:
            raise ValueError(f"{path}: line 1: header row required")
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            parsed = []
            for name, cell in zip(("energy", "weight"), row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: bad {name} field: {cell!r}")
            energies.append(parsed[0])
            weights.append(parsed[1])
    if not energies:
        raise ValueError(f"{path}: no energy,weight rows after the header")
    return DiscreteSpectrum(np.array(energies), np.array(weights))


def band_from_json(path) -> ContinuousBand:
    """Build a band from the JSON descriptor file at ``path``.

    Schema: {"delta_min": ..., "delta_max": ...,
             "density": "constant" | "gaussian" | {"tabulated": [[E, w], ...]}}
    """
    with open(path) as fh:
        data = json.load(fh)
    for key in ("delta_min", "delta_max"):
        if key not in data:
            raise ValueError(f"band descriptor missing {key!r}")
    density = data.get("density", "constant")
    if isinstance(density, dict):
        if "tabulated" not in density:
            raise ValueError("density object must carry a 'tabulated' key")
        density = np.asarray(density["tabulated"], dtype=float)
    return ContinuousBand(float(data["delta_min"]), float(data["delta_max"]), density)
