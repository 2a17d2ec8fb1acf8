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
as the power series of log cos, without a cos call, when a call has
enough of them to pay; geometric schedules spend most of their cycles
there. The rest go through cos. Large calls cut the (levels x schedules)
plane into tiles and run them on a thread pool over the CPUs in the
process's affinity mask (numpy's ufuncs release the GIL); every entry
sums the same cycle blocks in the same order either way, so the result
does not depend on the tiling.
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

from .quadrature import ABS_TOL, _integrate, batch_columns, integrate_oscillatory
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
# Fixed cost of the short-phase series in cos calls (see _series_pays).
# Measured on a 2-core machine (numpy 2.4, one BLAS thread) on calls with
# every phase short: the series takes 35-70 us on one schedule column and
# 55-110 us on 5-60 columns, while one cos call in a large block costs
# 4-13 ns (cos, abs, log and the sums included). 2**13 calls is about
# 40-100 us, so the rule keeps calls that would save less than that on
# the direct path, bit for bit: all of band-optimize's, whose 10-cycle
# searches have few short cycles, and every one-level call. On the 24
# shapes timed (1-256 levels x 10-100 cycles x 1-240 columns) the rule
# took the series only where it was faster.
SERIES_MIN_PHASES = 1 << 13


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

    When the cost rule (_series_pays) says it pays, the short cycles
    (h |t| <= SHORT_PHASE, h = max |delta| / 2) are summed by the power
    series of log cos (_sum_short_phases), truncated below 1e-17
    relative; this changes the result in its last bits against the cos
    of each phase. The cycles left go through cos in blocks of ``step`` =
    max(1, KERNEL_BLOCK_DOUBLES // (L S)) cycles; a plane larger than
    KERNEL_BLOCK_DOUBLES is cut into tiles so that no block holds more
    phases than that, and a call with PARALLEL_MIN_PHASES phases or more
    left for cos runs its tiles on the thread pool.
    """
    half = 0.5 * np.asarray(deltas, dtype=float)
    # Blocks are slices of rows; a column-major matrix would make each
    # block's temporaries strided and the kernel about twice as slow.
    tm = np.ascontiguousarray(times, dtype=float)
    out = np.zeros((half.size, tm.shape[1]))
    if out.size == 0 or tm.shape[0] == 0 or not np.count_nonzero(half):
        return out
    tm = _sum_short_phases(half, tm, out)
    step = max(1, KERNEL_BLOCK_DOUBLES // out.size)
    if out.size <= KERNEL_BLOCK_DOUBLES and out.size * tm.shape[0] < PARALLEL_MIN_PHASES:
        _accumulate(half, tm, step, out)
    else:
        _accumulate_tiles(half, tm, step, out)
    out *= 2.0
    return out


def _sum_short_phases(half, tm, out) -> np.ndarray:
    """Write the short cycles' sum_n log|cos(half t_n)| into ``out`` and
    return the cycles left for cos, or leave ``out`` alone and return
    ``tm`` when the series does not pay.

    With h = max |half|, x = h t and q = (half / h)**2, the short sum is
    sum_j LOG_COS_SERIES[j] q**(j+1) P_j over the power sums
    P_j = sum_n x_n**(2j+2) of each column's short cycles. The other
    cycles' |t| sort to the bottom of each column, zeros above them, and
    the rows above the longest column's first one are dropped.
    """
    cycles, cols = tm.shape
    if not _series_pays(half.size, cycles, cols, cycles):
        return tm
    h = float(np.abs(half).max())
    if not 0.0 < h < math.inf:
        return tm
    # Two comparisons rather than abs: no float temporary of the matrix.
    short = tm <= SHORT_PHASE / h
    short &= tm >= -SHORT_PHASE / h
    skip = int(short.sum(axis=0).min())
    if not _series_pays(half.size, cycles, cols, skip):
        return tm
    sums = _power_sums(tm, short, h) * LOG_COS_SERIES[:, None]
    # Powers of q for blocks of levels, then one matrix product each.
    rows = max(1, KERNEL_BLOCK_DOUBLES // len(sums))
    buf = np.empty((len(sums), min(rows, half.size)))
    for start in range(0, half.size, rows):
        q = buf[:, :min(rows, half.size - start)]
        np.divide(half[start:start + rows], h, out=q[0])
        np.square(q[0], out=q[0])
        _fill_powers(q)
        np.matmul(q.T, sums, out=out[start:start + rows])
    # A NaN time sorts last, so it stays and propagates as it would. The
    # copy lets the full matrix go before the cos loop allocates.
    left = np.abs(tm)
    np.copyto(left, 0.0, where=short)
    left.sort(axis=0)
    return left[skip:].copy()


def _power_sums(tm, short, h) -> np.ndarray:
    """(len(LOG_COS_SERIES), S) power sums P_j = sum_n (h t_n)**(2j+2)
    over each column's short cycles, in blocks of at most
    KERNEL_BLOCK_DOUBLES powers; one buffer serves every block."""
    terms, (cycles, cols) = LOG_COS_SERIES.size, tm.shape
    sums = np.zeros((terms, cols))
    rows = max(1, KERNEL_BLOCK_DOUBLES // (terms * cols))
    buf = np.empty((terms, min(rows, cycles), cols))
    for start in range(0, cycles, rows):
        powers = buf[:, :min(rows, cycles - start)]
        np.multiply(tm[start:start + rows], short[start:start + rows], out=powers[0])
        powers[0] *= h
        np.square(powers[0], out=powers[0])
        _fill_powers(powers)
        sums += powers.sum(axis=1)
    return sums


def _fill_powers(p) -> None:
    """Set p[j] = p[0] ** (j + 1) along the first axis, doubling the
    filled rows with each multiplication."""
    done = 1
    while done < len(p):
        n = min(done, len(p) - done)
        np.multiply(p[:n], p[done - 1], out=p[done:done + n])
        done += n


def _series_pays(levels, cycles, cols, skipped) -> bool:
    """Cost rule of the short-phase series, counted in cos calls. It saves
    one per level for each of the ``skipped`` cycles it takes out of
    every column (a short entry in a row that some other column keeps
    still costs a cos of zero, hardly less than the cos it replaces).
    Its powers and products cost about four per (level or cycle) and
    column, and its fixed numpy calls SERIES_MIN_PHASES."""
    return (levels * skipped - 4 * (levels + cycles)) * cols >= SERIES_MIN_PHASES


def _accumulate(half, tm, step, out) -> None:
    """Add sum_n log|cos(half t_n)| to ``out`` (l, s) for levels ``half``
    (l,) and schedule columns ``tm`` (N, s), ``step`` cycles per block.
    The first block allocates the phase buffer and the block sum; later
    blocks reuse them."""
    h = half[None, :, None]
    buf = acc = None
    for start in range(0, tm.shape[0], step):
        rows = tm[start:start + step, None, :]
        if buf is None:
            phase = buf = h * rows
        else:
            phase = np.multiply(h, rows, out=buf[:len(rows)])
        np.cos(phase, out=phase)
        np.abs(phase, out=phase)
        np.log(phase, out=phase)
        if step == 1:
            out += phase[0]
        else:
            acc = np.add.reduce(phase, axis=0, out=acc)
            out += acc


def _accumulate_tiles(half, tm, step, out) -> None:
    """_accumulate over tiles of the (levels, schedules) plane: whole
    rows while they fit, at most KERNEL_BLOCK_DOUBLES phases per block,
    and one tile per worker when the call is large enough for the pool."""
    levels, cols = out.shape
    workers, pool = _kernel_pool()
    want = workers if out.size * tm.shape[0] >= PARALLEL_MIN_PHASES else 1
    rows_per_tile = KERNEL_BLOCK_DOUBLES // (cols * step)
    if rows_per_tile:
        n_rows = min(levels, max(-(-levels // rows_per_tile), want))
        n_cols = min(cols, -(-want // n_rows))
    else:
        n_rows = levels
        n_cols = max(-(-cols // KERNEL_BLOCK_DOUBLES), -(-want // levels))
    # Never a one-entry tile of a larger plane: numpy sums a lone entry's
    # cycles pairwise rather than in order, which would change its bits.
    if cols == 1:
        n_rows = min(n_rows, max(1, levels // 2))
    elif n_rows == levels:
        n_cols = min(n_cols, cols // 2)
    row_cuts = [levels * i // n_rows for i in range(n_rows + 1)]
    col_cuts = [cols * i // n_cols for i in range(n_cols + 1)]
    tiles = [(half[r0:r1], tm[:, c0:c1], step, out[r0:r1, c0:c1])
             for r0, r1 in zip(row_cuts, row_cuts[1:])
             for c0, c1 in zip(col_cuts, col_cuts[1:])]
    if want == 1:
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
    with np.errstate(divide="ignore"):
        return shift + np.log(np.exp(logs - shift).sum(axis=0))


def survival_product(energies, e_target: float, schedule: TimeSchedule) -> np.ndarray:
    """Product of cycle survival factors at each energy (the exponential
    of the log_survival kernel). No command calls it; it stays because
    bench/tracing.py looks it up by name."""
    e = np.asarray(energies, dtype=float)
    logs = log_survival(e.ravel() - e_target, schedule.times[:, None])
    return np.exp(logs[:, 0]).reshape(e.shape)


def target_mask(energies, e_target: float) -> np.ndarray:
    """Levels forming the target manifold: within TARGET_RTOL of the
    target, relative to the scale max(1, |E_t|, max |E|)."""
    e = np.asarray(energies, dtype=float)
    scale = max(1.0, abs(e_target), float(np.max(np.abs(e), initial=0.0)))
    return np.abs(e - e_target) <= TARGET_RTOL * scale


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

    For a band the integrands density(E) * prod_n cos((E - E_t) t_n / 2)**2
    of all columns are integrated together with the oscillation-budgeted
    panel rule, each to ``abs_tol``; the phase rate is the largest column
    total. Columns go in chunks of quadrature.batch_columns, so that the
    first round of panels stays within MAX_PANEL_COLUMNS. For a discrete
    spectrum the non-target weights are summed after filtering. A column
    of zeros returns the initial non-target weight.

    A column's value depends on the other columns of its call: the
    kernel's cycle blocks, its short-phase cost rule and its power sums
    are sized by the column count, and the columns of a band share panels,
    refined while any column needs it. So a batch column can differ from
    the same schedule integrated alone: in its last bits for a discrete
    spectrum, within ``abs_tol`` for a band.
    """
    tm = np.asarray(times, dtype=float)
    if isinstance(spectrum, DiscreteSpectrum):
        keep = ~target_mask(spectrum.energies, e_target)
        logs = log_survival(spectrum.energies[keep] - e_target, tm)
        return spectrum.weights[keep] @ np.exp(logs)
    target_gap(spectrum, e_target)  # rejects a target inside the band
    if tm.shape[1] == 0:
        return np.empty(0)
    lo, hi = spectrum.delta_min, spectrum.delta_max

    def integrand(e, cols=tm):
        return spectrum.density_values(e)[:, None] * np.exp(log_survival(e - e_target, cols))

    rate = float(tm.sum(axis=0).max(initial=0.0))
    if tm.shape[1] == 1:
        # One schedule goes through the public integrator as a scalar
        # integral: bench/tracing.py instruments integrate_oscillatory and
        # reads its bound as one float.
        value, _ = integrate_oscillatory(lambda e: integrand(e)[:, 0], lo, hi,
                                         phase_rate=rate, abs_tol=abs_tol)
        return np.array([value])
    chunk = batch_columns(lo, hi, rate)
    return np.concatenate([
        _integrate(lambda e, cols=tm[:, c:c + chunk]: integrand(e, cols), lo, hi, rate, abs_tol)[0]
        for c in range(0, tm.shape[1], chunk)])


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
