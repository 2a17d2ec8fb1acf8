"""Time-sampling schedules: generation, rounding, reading from files.

A schedule is the ordered list of evolution times fed to successive
measurement cycles. Geometric ("superiteration") schedules divide a
total time budget T so that cycle n runs for t1 / alpha**(n-1); the
alpha = 1 limit is the uniform schedule T/N per cycle. Random schedules
draw each time as sigma * |z| with z standard normal.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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

    def canonical(self) -> "TimeSchedule":
        """Drop entries below TIME_FLOOR (their filter factors are 1 to
        within roundoff at band scales of order unity)."""
        return TimeSchedule(self.times[self.times >= TIME_FLOOR])


class GeometricTable(NamedTuple):
    """What geometric schedules share across totals, one entry per ratio:
    t1 = T * num / den, and powers[j, n] = alpha_j**-n."""

    num: np.ndarray  # (S,): 1 - 1/alpha, or 1 at alpha = 1
    den: np.ndarray  # (S,): 1 - alpha**-N, or N at alpha = 1
    powers: np.ndarray  # (S, N)


def geometric_table(alphas, n_samples: int) -> GeometricTable:
    """The GeometricTable of ``alphas`` (flattened) at ``n_samples`` cycles."""
    if n_samples < 1:
        raise ValueError("n_samples must be a positive integer")
    n = int(n_samples)
    ratios = np.asarray(alphas, dtype=float).ravel()
    num, den = [], []
    for alpha in ratios.tolist():
        if not alpha >= 1.0:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        if alpha == 1.0:
            num.append(1.0)
            den.append(float(n))
            continue
        log_a = math.log(alpha)
        # expm1 keeps the ratio stable as alpha -> 1+.
        num.append(-math.expm1(-log_a))
        den.append(-math.expm1(-n * log_a))
    return GeometricTable(np.array(num), np.array(den),
                          np.power(ratios[:, None], _exponents(n)))


def scale_table(table: GeometricTable, total_time) -> np.ndarray:
    """The (N, S) geometric times of ``table`` at ``total_time``: a scalar,
    or one total per column (a one-ratio table then serves every total)."""
    totals = np.asarray(total_time, dtype=float).ravel()
    if not all(t > 0 for t in totals.tolist()):  # NaN fails too
        raise ValueError("total_time must be positive")
    t1 = totals * table.num
    t1 /= table.den
    out = np.empty((table.powers.shape[1], t1.size))
    return np.multiply(t1, table.powers.T, out=out)


def geometric_times(alphas, n_samples: int, total_time) -> np.ndarray:
    """Geometric schedules t_n = t1 * alpha**-(n-1) summing to total_time,
    one per column: (n_samples, S) for S ratios and S totals, or one of
    them a scalar.

    t1 = T * (1 - 1/alpha) / (1 - alpha**-N); alpha = 1 gives the uniform
    schedule T/N (the closed form is 0/0 there, and 1**-n is exactly 1).
    The work splits in two steps, so that a ratio search builds one table
    for all its totals. geometric_table holds what depends on the ratio
    alone: num = -expm1(-log alpha) and den = -expm1(-N log alpha), from
    scalar math.log/expm1 per ratio (numpy's vectorized log may round
    differently, and a column must not depend on the others), num = 1 and
    den = N at alpha = 1, and the powers. scale_table then takes
    t1 = (T * num) / den and the times t1 * powers. Products and
    quotients are correctly rounded in numpy as in Python, so t1 has the
    bits of the scalar expression, and is T / N exactly at alpha = 1.
    The powers are one np.power over an (S, N) plane, each row one ratio
    broadcast over the contiguous exponents 0, -1, ...: the inner loop a
    one-column call (ratio ** steps) runs too, so every column keeps the
    one-column bits. numpy does not promise that its pow loops for other
    operand layouts round alike.
    """
    return scale_table(geometric_table(alphas, n_samples), total_time)


@functools.lru_cache(maxsize=16)
def _exponents(n: int) -> np.ndarray:
    """0, -1, ..., 1 - n, read-only: the exponents of geometric_table."""
    steps = np.arange(0.0, -n, -1.0)
    steps.flags.writeable = False
    return steps


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
    from scipy.special import ndtri

    if n_samples < 1 or n_schedules < 1:
        raise ValueError("n_samples and n_schedules must be positive integers")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = np.clip(rng.random((int(n_schedules), int(n_samples))), 1e-16, 1.0 - 1e-16)
    return np.abs(ndtri(u)).T


def trotter_steps(times, dt: float) -> np.ndarray:
    """The multiple of dt each time rounds down to, as an array of floats
    holding integers in the array's shape: floor(t / dt), one step more
    where t lies within 1e-9 dt below the next multiple, so that a time
    already on a multiple does not slip down a step. trotter_floor is these
    steps times dt; a step below 2**53 converts to an integer exactly.
    ``times`` is not written to."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    t = np.asarray(times, dtype=float)
    mult = np.divide(t, dt, out=np.empty_like(t))
    np.floor(mult, out=mult)
    edge = mult + 1.0
    edge *= dt
    np.subtract(t, edge, out=edge)
    np.add(mult, 1.0, out=mult, where=edge > -1e-9 * dt)
    return mult


def trotter_floor(times, dt: float) -> np.ndarray:
    """Round each time down to a multiple of dt, keeping the array's shape:
    trotter_steps(times, dt) * dt (times that round to zero stay as zeros,
    which the survival kernel treats as exact no-ops). ``times`` is not
    written to."""
    mult = trotter_steps(times, dt)
    mult *= dt
    return mult


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


def file_format(path) -> str:
    """The format of a schedule file: json for a path ending in .json,
    else csv. The CLI writes that format to ``--out`` and read_schedule
    reads it back."""
    return "json" if str(path).endswith(".json") else "csv"


def read_schedule(path) -> TimeSchedule:
    """Load a schedule, dispatching on the file extension (file_format)."""
    if file_format(path) == "json":
        return schedule_from_json(path)
    return schedule_from_csv(path)
