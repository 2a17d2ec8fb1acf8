"""Time-sampling schedules: generation, rounding, reading from files.

A schedule is the ordered list of evolution times fed to successive
measurement cycles. Geometric ("superiteration") schedules divide a
total time budget T so that cycle n runs for t1 / alpha**(n-1); the
alpha = 1 limit is the uniform schedule T/N per cycle. Random schedules
draw each time as sigma * |z| with z standard normal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

# Reported schedules treat entries below this as discarded; generators
# keep raw values so time budgets stay exact.
TIME_FLOOR = 1e-6
# Stream key, paired with the run seed, of the random-schedule baseline;
# it keeps those draws apart from the optimizers' restart streams.
BASELINE_STREAM = 977


@dataclass(frozen=True)
class TimeSchedule:
    """Ordered, nonnegative evolution times for one rodeo run."""

    times: np.ndarray
    total_time: float = field(init=False)

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float)).copy()
        if t.ndim != 1:
            raise ValueError("schedule times must be one dimensional")
        if t.size and not np.all(np.isfinite(t)):
            raise ValueError("schedule times must be finite")
        if t.size and t.min() < 0:
            raise ValueError("schedule times must be nonnegative")
        with np.errstate(over="ignore"):
            total = float(t.sum())
        if not math.isfinite(total):
            raise ValueError("schedule total time overflows the double range")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "total_time", total)

    def __len__(self) -> int:
        return int(self.times.size)

    def canonical(self, floor: float = TIME_FLOOR) -> "TimeSchedule":
        """Drop entries below ``floor`` (their filter factors are 1 to
        within roundoff at band scales of order unity)."""
        return TimeSchedule(self.times[self.times >= floor])


def geometric_times(alphas, n_samples: int, total_time) -> np.ndarray:
    """Geometric schedules t_n = t1 * alpha**-(n-1) summing to total_time,
    one per column: (n_samples, S) for alphas and total_time broadcast to S.

    t1 = T * (1 - 1/alpha) / (1 - alpha**-N); alpha = 1 gives the uniform
    schedule T/N (the closed form is 0/0 there). Columns are built one at
    a time from scalar ratios: numpy's vectorized log and pow may round
    differently, and a column must not depend on the others.
    """
    a, total = np.broadcast_arrays(np.asarray(alphas, dtype=float),
                                   np.asarray(total_time, dtype=float))
    if n_samples < 1:
        raise ValueError("n_samples must be a positive integer")
    n = int(n_samples)
    steps = -np.arange(n, dtype=float)
    out = np.empty((n, a.size))
    for j, (alpha, t) in enumerate(zip(a.ravel().tolist(), total.ravel().tolist())):
        if not alpha >= 1.0:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        if not t > 0:
            raise ValueError("total_time must be positive")
        if alpha == 1.0:
            out[:, j] = t / n
            continue
        log_a = math.log(alpha)
        # expm1 keeps the ratio stable as alpha -> 1+.
        t1 = t * (-math.expm1(-log_a)) / (-math.expm1(-n * log_a))
        out[:, j] = t1 * alpha ** steps
    return out


def superiteration_schedule(alpha: float, n_samples: int, total_time: float) -> TimeSchedule:
    """One geometric schedule: the single column of geometric_times."""
    return TimeSchedule(geometric_times(alpha, n_samples, total_time)[:, 0])


def half_normal_draws(n_samples: int, n_schedules: int, seed) -> np.ndarray:
    """(n_samples, n_schedules) matrix of |z|, z ~ N(0, 1), one schedule
    per column: the stream rule of every random schedule.

    The generator is PCG64(seed) (an int, a tuple of ints or a
    SeedSequence); column j takes the j-th run of n_samples uniforms,
    each mapped through the inverse normal CDF, so a column does not
    depend on how many columns are drawn.
    """
    if n_samples < 1 or n_schedules < 1:
        raise ValueError("n_samples and n_schedules must be positive integers")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = np.clip(rng.random((int(n_schedules), int(n_samples))), 1e-16, 1.0 - 1e-16)
    return np.abs(ndtri(u)).T


def trotter_floor(times, dt: float) -> np.ndarray:
    """Round each time down to a multiple of dt, keeping the array's shape
    (times that round to zero stay as zeros, which the survival kernel
    treats as exact no-ops)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    t = np.asarray(times, dtype=float)
    mult = np.floor(t / dt)
    # A time already sitting on a multiple must not slip down a step.
    mult = np.where(t - (mult + 1.0) * dt > -1e-9 * dt, mult + 1.0, mult)
    return mult * dt


def trotter_round(schedule: TimeSchedule, dt: float) -> TimeSchedule:
    """The nonzero entries of trotter_floor."""
    rounded = trotter_floor(schedule.times, dt)
    return TimeSchedule(rounded[rounded > 0])


def schedule_from_csv(path) -> TimeSchedule:
    """Read times from a CSV file: one value per line, or a header row
    naming a ``time`` column (``time`` or ``index,time`` as the CLI
    writes). Blank lines and ``#`` comment lines are skipped."""
    times, column, width, header_allowed = [], 0, 1, True
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            if header_allowed and "time" in cells:
                column, width = cells.index("time"), len(cells)
                header_allowed = False
                continue
            header_allowed = False
            try:
                if len(cells) != width:
                    raise ValueError
                times.append(float(cells[column]))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not a time value: {line!r}") from None
    return TimeSchedule(np.array(times))


def schedule_from_json(path) -> TimeSchedule:
    """Read times from a JSON array, or from the ``result.schedule``
    array of the document ``--format json`` writes."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and isinstance(data.get("result"), dict):
        data = data["result"].get("schedule")
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of times or a result.schedule array")
    return TimeSchedule(np.array(data, dtype=float))


def read_schedule(path) -> TimeSchedule:
    """Load a schedule, dispatching on the file extension."""
    p = str(path)
    if p.endswith(".json"):
        return schedule_from_json(path)
    return schedule_from_csv(path)
