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
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Union

import numpy as np

from .quadrature import ABS_TOL, _integrate_columns, integrate_oscillatory
from .schedules import TimeSchedule

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
# The 10**3-10**4-phase calls of band searches stay serial.
PARALLEL_MIN_PHASES = 1 << 18
# A cycle of time t is short when SHORT_PHASE bounds its phase at every
# level: h |t| <= SHORT_PHASE with h = max |delta| / 2.
SHORT_PHASE = 0.5
# One column's share of the short-phase series' fixed cost, in direct
# phases (see _split_cycles). A call's fixed numpy calls take 60-90 us,
# 10,000-17,000 direct phases of 5.3 ns, which a ratio grid of 240
# columns shares and a one-column call pays alone; the rule cannot tell
# the two apart. Timed on the benchmark workloads (2-core machine, numpy
# 2.4, in-process passes) when a direct phase cost a cos call of 24 ns: 0
# put band-optimize's one-column line searches on the series (about 10%
# slower there than 2**9), 2**10 and up took it from trotter-sweep's
# 15-level grids (2**12 about 20% slower), and chain-curve read the same
# from 2**8 to 2**10. At 5.3 ns, 2**11 with 18 per level or cycle (the
# same costs in the new unit) again took trotter-sweep's grids off the
# series: slower there in 3 of 4 benchmark pairs, faster on chain-curve
# in 3 of 4.
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


def log_survival(deltas, times, work: dict | None = None) -> np.ndarray:
    """Per-level log filter products for a batch of schedules.

    ``deltas`` (L,) are level offsets E - E_t and ``times`` (N, S) holds
    one schedule per column; returns the (L, S) matrix of
    sum_n log cos**2(delta t_n / 2), zeros when L, N or S is 0 or when
    every offset is 0 (a chain objective's target manifold). A zero time
    adds exactly 0.

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
    half = 0.5 * np.asarray(deltas, dtype=float)
    # Blocks are slices of rows; a column-major matrix would make each
    # block's temporaries strided and the kernel about twice as slow.
    tm = np.ascontiguousarray(times, dtype=float)
    out = np.zeros((half.size, tm.shape[1]))
    if out.size == 0 or tm.shape[0] == 0 or not np.count_nonzero(half):
        return out
    order, groups, phases = _split_cycles(half, tm, out)
    parts = [(left, out[:, cols]) for cols, left in groups]
    if work is not None:
        _count(work, "series", phases)
        _count(work, "cos", sum(plane.size * left.shape[0] for left, plane in parts))
    _accumulate_tiles(half, parts)
    np.negative(out, out=out)
    return out if order is None else np.take(out, np.argsort(order), axis=1)


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
    levels = np.linspace(start, stop, count)
    tm = np.asarray(times, dtype=float).ravel()
    h = 0.5 * float(np.abs(levels).max(initial=0.0))
    # A NaN time is long, so cos meets it and it propagates.
    short = np.abs(tm) <= (SHORT_PHASE / h if h else math.inf)
    out = log_survival(levels, tm[short][:, None], work)[:, 0]
    cycles = tm[~short]
    if cycles.size and count:
        step = (stop - start) / (count - 1) if count > 1 else 0.0
        _add_by_angle_addition(levels, step, 0.5 * cycles, out)
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


def _split_cycles(half, tm, out) -> tuple:
    """Write into ``out`` the short cycles' -2 sum_n log|cos(half t_n)| =
    -sum_n log cos**2 of each column that takes the series (the sign and
    scale of _accumulate's sums), and return (order, groups, phases): the
    order of ``tm``'s columns that ``out`` holds, None for their own; the
    cycles left for the direct path as (columns, cycles) groups, each a
    slice of ``out``'s columns, none without a cycle; and the phases the
    series summed.

    The cost rule, in direct phases (one level of one cycle, about 5.3
    ns): the series saves a column one per level for each short cycle (h
    |t| <= SHORT_PHASE, h = max |half|) and costs about four per (level or
    cycle), plus SERIES_MIN_PHASES, the column's share of the call's fixed
    numpy calls (measured in a call of 240 series columns: about 7 per
    cycle, under 1 per level, and 60-90 us a call). It reads nothing of
    the other columns, so a column takes the same path alone as in any
    batch. With x = h t and q = (half / h)**2, a column's short sum of
    log|cos| is sum_j LOG_COS_SERIES[j] q**(j+1) P_j over its power sums
    P_j = sum_n x_n**(2j+2). Its other cycles' |t| sort to the bottom,
    zeros above. Series columns with about as many short cycles group
    together (bands of an eighth of the cycles) and drop the rows of
    zeros they share; a zero adds exactly 0, so no column's sum depends
    on its group, and a band left with no rows is no group. The other
    columns form one group, their times as given. Each column's group key
    is -1 when it goes direct, else its band; when the keys are not in
    order, the columns are reordered once, stably by key, so that every
    group, the direct one first, is one slice of the plane.
    """
    levels, (cycles, cols) = half.size, tm.shape
    least = max(1, math.ceil((SERIES_MIN_PHASES + 4 * (levels + cycles)) / levels))
    h = float(np.abs(half).max()) if least <= cycles else 0.0
    take = np.zeros(cols, dtype=bool)
    if 0.0 < h < math.inf:
        # Two comparisons rather than abs: no float temporary of the matrix.
        short = tm <= SHORT_PHASE / h
        short &= tm >= -SHORT_PHASE / h
        counts = short.sum(axis=0)
        take = counts >= least
    first = cols - int(np.count_nonzero(take))
    order, groups, phases = None, [], 0
    if first < cols:
        key = np.where(take, (counts - counts[take].min()) // max(1, cycles // 8), -1)
        if (key[1:] < key[:-1]).any():
            order = np.argsort(key, kind="stable")
            key, counts = key[order], counts[order]
            tm, short = np.take(tm, order, axis=1), np.take(short, order, axis=1)
        series = out[:, first:]
        tm_s, short, counts, key = tm[:, first:], short[:, first:], counts[first:], key[first:]
        phases = levels * int(counts.sum())
        terms = LOG_COS_SERIES.size
        coeff = _power_sums(tm_s, short, h) * (-2.0 * LOG_COS_SERIES)
        # Powers of q for fixed blocks of levels, then one matrix-vector
        # product per column: every column meets the same BLAS call on the
        # same block, so its entries do not depend on the column count (one
        # matrix product over all columns would order its sums by the shape).
        rows = KERNEL_BLOCK_DOUBLES // terms
        buf = np.empty((terms, min(rows, levels)))
        for start in range(0, levels, rows):
            q = buf[:, :min(rows, levels - start)]
            np.divide(half[start:start + rows], h, out=q[0])
            np.square(q[0], out=q[0])
            _fill_powers(q)
            chunk = max(1, KERNEL_BLOCK_DOUBLES // q.shape[1])
            for c in range(0, series.shape[1], chunk):
                products = np.matmul(q.T, coeff[c:c + chunk, :, None])
                series[start:start + rows, c:c + chunk] = products[:, :, 0].T
        # A NaN time sorts last, so it stays and propagates as it would.
        left = np.abs(tm_s)
        np.copyto(left, 0.0, where=short)
        left.sort(axis=0)
        cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), key.size]
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
    for each column of ``times`` (N, S); returns (S,). Zero weights
    (log -inf) and an empty level set are allowed."""
    logs = log_survival(deltas, times)
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
    if isinstance(spectrum, DiscreteSpectrum):
        _, rest, _ = spectrum.levels(e_target)
        return np.exp(log_surviving(*rest, tm))
    target_gap(spectrum, e_target)  # rejects a target inside the band
    lo, hi = spectrum.delta_min, spectrum.delta_max

    def integrand(e, cols):
        return spectrum.density_values(e)[:, None] * np.exp(log_survival(e - e_target, tm[:, cols]))

    # Each total summed as a contiguous row: the same bits for any column count.
    rates = np.ascontiguousarray(tm.T).sum(axis=1)
    if tm.shape[1] == 1:
        # The one-column case of the integrator, with the batch path's
        # bits; kept only because bench/tracing.py sees band integrals
        # through integrate_oscillatory.
        value, _ = integrate_oscillatory(lambda e: integrand(e, slice(None))[:, 0], lo, hi,
                                         phase_rate=float(rates[0]), abs_tol=abs_tol)
        return np.array([value])
    return _integrate_columns(integrand, lo, hi, rates, abs_tol)[0]


def rsn_quadrature_value_and_grad(band: ContinuousBand, e_target: float, times) -> tuple:
    """Residual spectral norm of one schedule ``times`` (N,) on a band and
    its gradient in the times: (value, (N,) gradient).

    One integration of N + 1 columns, all at the schedule's total as
    phase rate: column 0 is rsn_quadrature_batch's integrand, with the
    bits of its one-column call, and column n is the derivative under the
    integral, density(E) * (-d/2) sin(d t_n) prod_{m != n} cos**2(d t_m / 2)
    with d = E - E_t. The product leaving out cycle n multiplies the
    factors before and after it, so it stays finite at zeros of cos and at
    zero times. Each column is refined to ABS_TOL on its own.
    """
    t = np.asarray(times, dtype=float)
    tm = t[:, None]
    target_gap(band, e_target)  # rejects a target inside the band

    def integrand(e, cols):
        d = e - e_target
        density = band.density_values(e)[:, None]
        vals = np.empty((len(e), len(cols)))
        value = cols == 0
        if value.any():
            vals[:, value] = density * np.exp(log_survival(d, tm))
        if not value.all():
            n = cols[~value] - 1
            # tan x cos**2 x = sin x cos x, and cos**2 x = 1 / (1 + tan**2 x):
            # one tan in place of a cos and a sin.
            u = np.tan(tm * (0.5 * d))
            square = 1.0 / (1.0 + u * u)
            # Row k of ``before`` (``after``): the product of the factors
            # of the cycles before (after) cycle k.
            before, after = np.empty_like(square), np.empty_like(square)
            before[0] = after[-1] = 1.0
            np.cumprod(square[:-1], axis=0, out=before[1:])
            np.cumprod(square[:0:-1], axis=0, out=after[-2::-1])
            grad = u[n] * square[n] * before[n] * after[n]
            vals[:, ~value] = grad.T * (-density * d[:, None])
        return vals

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
