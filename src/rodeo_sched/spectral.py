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
as the power series of log cos, without a cos call, in each schedule
that has enough of them to pay; geometric schedules spend most of their
cycles there. The rest go through cos, added in order. Large calls cut
the (levels x schedules) plane into tiles and run them on a thread pool
over the CPUs in the process's affinity mask (numpy's ufuncs release the
GIL). A schedule's entries depend on its own times and the levels alone:
not on the tiling, nor on the other schedules of the call.
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
# Calls with at least this many phases (cycles x levels x schedules) run
# their tiles on the thread pool; smaller ones stay on the calling thread.
# Measured on a 2-core machine: a pool round trip takes 27-69 us; two
# threads run 2**16-2**20 phases in 0.55-0.85 of the serial time when the
# second core is idle, 1.03-1.16 of it when that core is busy. At 2**18
# (about 5 ms serial) the round trip is about 1% of a call, and the
# 10**3-10**4-phase calls of band searches stay serial.
PARALLEL_MIN_PHASES = 1 << 18
# A cycle of time t is short when SHORT_PHASE bounds its phase at every
# level: h |t| <= SHORT_PHASE with h = max |delta| / 2.
SHORT_PHASE = 0.5
# One column's share of the short-phase series' fixed cost, in cos calls
# (see _series_columns). A call's fixed numpy calls cost about as much as
# a few thousand cos calls, which a ratio grid of 240 columns shares and
# a one-column call pays alone; the rule cannot tell the two apart.
# Timed on the benchmark workloads (2-core machine, numpy 2.4, in-process
# passes alternated with the kernel it replaced): 0 put band-optimize's
# one-column line searches on the series (about 10% slower there than
# 2**9), 2**10 and up took it from trotter-sweep's 15-level grids (2**12
# about 20% slower), and chain-curve read the same from 2**8 to 2**10.
SERIES_MIN_PHASES = 1 << 9


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


def log_survival(deltas, times) -> np.ndarray:
    """Per-level log filter products for a batch of schedules.

    ``deltas`` (L,) are level offsets E - E_t and ``times`` (N, S) holds
    one schedule per column; returns the (L, S) matrix of
    sum_n log cos**2(delta t_n / 2), zeros when L, N or S is 0 or when
    every offset is 0 (a chain objective's target manifold). A zero time
    adds exactly 0.

    A column's entries depend on its own times and on ``deltas`` alone,
    bit for bit, whatever other columns share the call. Columns for which
    the cost rule (_series_columns) says it pays sum their short cycles
    (h |t| <= SHORT_PHASE, h = max |delta| / 2) by the power series of
    log cos (_sum_short_phases), truncated below 1e-17 relative; this
    changes the result in its last bits against the cos of each phase.
    Every entry then adds the log|cos| of its cycles left one after
    another, in order, in blocks of at most KERNEL_BLOCK_DOUBLES phases;
    a call with PARALLEL_MIN_PHASES phases or more left for cos runs its
    tiles on the thread pool.
    """
    half = 0.5 * np.asarray(deltas, dtype=float)
    # Blocks are slices of rows; a column-major matrix would make each
    # block's temporaries strided and the kernel about twice as slow.
    tm = np.ascontiguousarray(times, dtype=float)
    out = np.zeros((half.size, tm.shape[1]))
    if out.size == 0 or tm.shape[0] == 0 or not np.count_nonzero(half):
        return out
    series = _series_columns(half, tm)
    if series is None:
        groups = [(None, tm)]
    else:
        h, short, counts, take = series
        if take.all():
            groups = _sum_short_phases(half, h, tm, short, counts, out)
        else:
            # The columns that take the series, then the rest; a column's
            # entries are the same in either group as in the whole call.
            cols = np.flatnonzero(take)
            part = np.zeros((half.size, len(cols)))
            groups = _sum_short_phases(half, h, tm[:, cols], short[:, cols], counts[cols], part)
            out[:, cols] = part
            groups = [(cols if g is None else cols[g], left) for g, left in groups]
            rest = np.flatnonzero(~take)
            groups.append((rest, np.ascontiguousarray(tm[:, rest])))
    planes = [out if cols is None else out[:, cols] for cols, _ in groups]
    _accumulate_tiles(half, [(left, plane) for (_, left), plane in zip(groups, planes)])
    for (cols, _), plane in zip(groups, planes):
        if cols is not None:
            out[:, cols] = plane
    out *= 2.0
    return out


def _series_columns(half, tm):
    """(h, short, counts, take) of a call whose columns may pay for the
    series: h = max |half|, the (N, S) mask of the short cycles h |t| <=
    SHORT_PHASE, each column's count of them, and the (S,) mask of the
    columns that sum theirs by the series. None when no column could pay,
    even with every cycle short, or when none does.

    The cost rule, counted in cos calls: the series saves a column one
    per level for each of its short cycles; its powers and products cost
    about four per (level or cycle), and SERIES_MIN_PHASES is the
    column's share of the call's fixed numpy calls. The rule reads
    nothing of other columns, so a column takes the same path alone as in
    any batch.
    """
    levels, cycles = half.size, tm.shape[0]
    least = max(1, math.ceil((SERIES_MIN_PHASES + 4 * (levels + cycles)) / levels))
    if least > cycles:
        return None
    h = float(np.abs(half).max())
    if not 0.0 < h < math.inf:
        return None
    # Two comparisons rather than abs: no float temporary of the matrix.
    short = tm <= SHORT_PHASE / h
    short &= tm >= -SHORT_PHASE / h
    counts = short.sum(axis=0)
    take = counts >= least
    return (h, short, counts, take) if take.any() else None


def _sum_short_phases(half, h, tm, short, counts, out) -> list:
    """Write the short cycles' sum_n log|cos(half t_n)| into ``out`` and
    return the cycles left for cos as (columns, cycles) groups, columns
    None for all of them.

    With h = max |half|, x = h t and q = (half / h)**2, the short sum is
    sum_j LOG_COS_SERIES[j] q**(j+1) P_j over the power sums
    P_j = sum_n x_n**(2j+2) of each column's short cycles. The other
    cycles' |t| sort to the bottom of each column, zeros above them.
    Columns with about as many short cycles go together (bands of an
    eighth of the cycles), and each group drops the rows of zeros its
    columns share; a zero adds exactly 0, so a column's sum does not
    depend on the group it falls in.
    """
    terms, (cycles, cols) = LOG_COS_SERIES.size, tm.shape
    coeff = _power_sums(tm, short, h) * LOG_COS_SERIES
    # Powers of q for fixed blocks of levels, then one matrix-vector
    # product per column: every column meets the same BLAS call on the
    # same block, so its entries do not depend on the column count (one
    # matrix product over all columns would order its sums by the shape).
    rows = KERNEL_BLOCK_DOUBLES // terms
    buf = np.empty((terms, min(rows, half.size)))
    for start in range(0, half.size, rows):
        q = buf[:, :min(rows, half.size - start)]
        np.divide(half[start:start + rows], h, out=q[0])
        np.square(q[0], out=q[0])
        _fill_powers(q)
        chunk = max(1, KERNEL_BLOCK_DOUBLES // q.shape[1])
        for c in range(0, cols, chunk):
            products = np.matmul(q.T, coeff[c:c + chunk, :, None])
            out[start:start + rows, c:c + chunk] = products[:, :, 0].T
    # A NaN time sorts last, so it stays and propagates as it would.
    left = np.abs(tm)
    np.copyto(left, 0.0, where=short)
    left.sort(axis=0)
    bands = (counts - counts.min()) // max(1, cycles // 8)
    if not bands.any():
        return [(None, left[int(counts.min()):])]
    groups = []
    for band in np.unique(bands):
        cols = np.flatnonzero(bands == band)
        groups.append((cols, np.ascontiguousarray(left[int(counts[cols].min()):, cols])))
    return groups


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
    """Add sum_n log|cos(half t_n)| to ``out`` (l, s) for levels ``half``
    (l,) and schedule columns ``tm`` (N, s), one cycle after another in
    order, ``rows`` cycles per block. A block's first row takes the sums
    so far (x + y is y + x, bit for bit), and numpy adds a block's rows
    in order when a row holds two or more entries; a one-entry plane,
    which numpy would sum pairwise, is computed as two copies of its
    level."""
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
        np.cos(phase, out=phase)
        np.abs(phase, out=phase)
        np.log(phase, out=phase)
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
    if phases < PARALLEL_MIN_PHASES and len(parts) == 1 and parts[0][1].size <= cap:
        tm, out = parts[0]
        _accumulate(half, tm, max(1, cap // out.size), out)
        return
    workers, pool = _kernel_pool() if phases >= PARALLEL_MIN_PHASES else (1, None)
    tiles = []
    for tm, out in parts:
        levels, cols = out.shape
        if out.size == 0:
            continue
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
    its phase rate being its own total; columns on the same panels share
    one kernel call. For a discrete spectrum the non-target levels are
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
    if tm.shape[1] == 0:
        return np.empty(0)
    lo, hi = spectrum.delta_min, spectrum.delta_max

    def integrand(e, cols):
        return spectrum.density_values(e)[:, None] * np.exp(log_survival(e - e_target, tm[:, cols]))

    # Each total summed as a contiguous row: the same bits for any column count.
    rates = np.ascontiguousarray(tm.T).sum(axis=1)
    if tm.shape[1] == 1:
        # One schedule goes through the public integrator as a scalar
        # integral: bench/tracing.py instruments integrate_oscillatory and
        # reads its bound as one float.
        value, _ = integrate_oscillatory(lambda e: integrand(e, slice(None))[:, 0], lo, hi,
                                         phase_rate=float(rates[0]), abs_tol=abs_tol)
        return np.array([value])
    return _integrate_columns(integrand, lo, hi, rates, abs_tol)[0]


def rsn_quadrature(spectrum: SpectralFunction, e_target: float,
                   schedule: TimeSchedule, *, abs_tol: float = ABS_TOL) -> float:
    """Residual spectral norm of one schedule: the one-column case of
    rsn_quadrature_batch. An empty schedule returns the initial
    non-target weight."""
    return float(rsn_quadrature_batch(spectrum, e_target, schedule.times[:, None],
                                      abs_tol=abs_tol)[0])


def load_spectrum_csv(path) -> DiscreteSpectrum:
    """Read a discrete spectrum from CSV rows of energy,weight.

    A header row is required; malformed rows raise with the line and
    field that failed.
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
