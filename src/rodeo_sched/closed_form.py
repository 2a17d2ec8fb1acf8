"""Closed-form residual spectral norm for constant bands.

The band model here is the two-sided one: unit overlap density on
E - E_t in [-delta_max, -delta_min] and [delta_min, delta_max], which
is the convention behind published schedule residuals. Each
squared-cosine filter factor expands into phases exp(i E t (k + k')/2)
over sign pairs k, k' = +-1, and the integral over [-delta, delta] of
the full product collapses to a weighted sum of sinc terms:

    I(delta) = 2 delta * sum over sign configs sinc(delta * sum_n s_n t_n)

with s_n = (k_n + k_n') / 2 in {-1, 0, +1} carrying weights {1, 2, 1}.
The residual of a schedule of N times is then

    zeta = (I(delta_max) - I(delta_min)) / 4**N

which costs 3**N sinc evaluations and is exact, no quadrature involved.
The integrand is even, so this equals twice the one-sided integral; a
band-averaged (unit-weight) residual is zeta / (2 (delta_max - delta_min)),
and either scale gives the same optimal schedules.

The dense enumeration, capped at MAX_ENUM_N cycles, is an independent
oracle: tests compare it with quadrature and ``rsn`` reports it beside
the quadrature value. Searches score a band through
``BandModel.objective``: batched quadrature on the band's
``quadrature_twin``.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate_oscillatory
from .schedules import TimeSchedule
from .spectral import ContinuousBand, rsn_quadrature_batch

# Largest schedule the dense 3**N enumeration accepts.
MAX_ENUM_N = 12

_SINC_TAYLOR_CUTOFF = 1e-4


@dataclass(frozen=True)
class BandModel:
    """Two-sided band: unit overlap density at gaps [delta_min, delta_max]
    on both sides of a target sitting at energy 0."""

    delta_min: float
    delta_max: float

    def __post_init__(self):
        if not 0 < self.delta_min < self.delta_max:
            raise ValueError(
                f"need 0 < delta_min < delta_max, got [{self.delta_min}, {self.delta_max}]")

    def quadrature_twin(self) -> ContinuousBand:
        """The same band for rsn_quadrature with the target at zero.

        Every level with |E| in [delta_min, delta_max] counts at unit
        overlap: folding both signs gives a density of 2 on
        [delta_min, delta_max], deliberately unnormalized.
        """
        table = np.array([[self.delta_min, 2.0], [self.delta_max, 2.0]])
        return ContinuousBand(self.delta_min, self.delta_max, table, normalize=False)

    def objective(self):
        """The band's search objective: (N, S) schedule columns to their
        (S,) residuals, by rsn_quadrature_batch on the quadrature twin."""
        twin = self.quadrature_twin()
        return lambda tm: rsn_quadrature_batch(twin, 0.0, tm)


def sinc(x):
    """sin(x) / x with a Taylor branch near zero (sinc(0) = 1)."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SINC_TAYLOR_CUTOFF
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)
    if out.ndim == 0:
        return float(out)
    return out


@functools.lru_cache(maxsize=4)
def _ternary_digits(n: int):
    """Half of the {-1,0,+1}**n sign configurations, with multiplicities.

    sinc is even, so configurations come in +-pairs contributing twice;
    only those whose first nonzero digit is +1 are kept (doubled), plus
    the all-zero row once. Returns (digits (R, n), weights (R,)) where
    weights fold in the per-digit multiplicities {1, 2, 1} as 2**zeros.
    """
    if n == 0:
        return np.zeros((1, 0)), np.array([1.0])
    grids = np.meshgrid(*([np.array([-1, 0, 1], dtype=np.int8)] * n), indexing="ij")
    digits = np.stack([g.ravel() for g in grids], axis=1)
    nonzero = digits != 0
    first = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), 0)
    lead = digits[np.arange(len(digits)), first]
    keep = lead >= 0
    digits = digits[keep]
    zeros = (digits == 0).sum(axis=1)
    weights = 2.0 ** zeros * np.where(zeros == n, 1.0, 2.0)
    return digits.astype(float), weights


def _sinc_sum(times_matrix: np.ndarray, delta_max: float,
              delta_min: float = 0.0) -> np.ndarray:
    """I(delta_max) - I(delta_min) for each column of an (N, S) times
    matrix, as one weighted sinc sum (I(0) = 0)."""
    tm = np.asarray(times_matrix, dtype=float)
    if tm.ndim != 2:
        raise ValueError("times_matrix must be 2-D with schedules as columns")
    n = tm.shape[0]
    if n > MAX_ENUM_N:
        raise ValueError(
            f"{n} time samples exceeds the 3**N enumeration bound "
            f"({MAX_ENUM_N}); use rsn_quadrature instead")
    digits, weights = _ternary_digits(n)
    sums = digits @ tm
    return weights @ (2.0 * delta_max * sinc(delta_max * sums)
                      - 2.0 * delta_min * sinc(delta_min * sums))


def rsn_closed_form(band: BandModel, schedule: TimeSchedule) -> float:
    """Exact residual spectral norm of a schedule on a constant band.

    Returns (I(delta_max) - I(delta_min)) / 4**N, the surviving weight
    on the two-sided unit-overlap band; an empty schedule gives
    2 (delta_max - delta_min). Entries below the reporting floor are
    dropped first; their filter factors differ from 1 by less than
    1e-12 at order-unity gaps.
    """
    times = schedule.canonical().times
    value = _sinc_sum(times[:, None], band.delta_max, band.delta_min)[0]
    return float(value) / 4.0 ** times.size


def rsn_closed_form_batch(band: BandModel, times_matrix: np.ndarray) -> np.ndarray:
    """Vectorized rsn_closed_form over schedules stacked as columns.

    ``times_matrix`` has shape (N, S); returns the S residual norms.
    """
    tm = np.asarray(times_matrix, dtype=float)
    return _sinc_sum(tm, band.delta_max, band.delta_min) / 4.0 ** tm.shape[0]


def superiteration_limit_rsn(band: BandModel, t1: float, *, abs_tol: float = 1e-12) -> float:
    """RSN of the infinite geometric schedule with leading time t1.

    In the N -> infinity, alpha = 2 limit the filter product telescopes
    to sinc(E t1) ** 2, so the two-sided residual is
    2 * integral over [delta_min, delta_max] of sinc(E t1) ** 2,
    evaluated by the oscillation-budgeted quadrature (no special
    functions involved).
    """
    if not t1 > 0:
        raise ValueError("t1 must be positive")

    def integrand(e):
        return sinc(e * t1) ** 2

    value, _ = integrate_oscillatory(
        integrand, band.delta_min, band.delta_max,
        phase_rate=2.0 * t1, abs_tol=abs_tol)
    return 2.0 * value


def asymptotic_rsn(band: BandModel, t1: float) -> float:
    """Long-time limit of superiteration_limit_rsn.

    sinc(E t1)**2 averages to 1 / (2 E**2 t1**2) once many oscillations
    fit in the band, and the boundary oscillations cancel to leading
    order, leaving

        zeta = (1 / t1**2) (1/delta_min - 1/delta_max)

    for the two-sided band. Valid for t1 * delta_min >> 1; a warning is
    issued below 10.
    """
    if not t1 > 0:
        raise ValueError("t1 must be positive")
    if t1 * band.delta_min < 10.0:
        warnings.warn(
            f"t1 * delta_min = {t1 * band.delta_min:.3g} is outside the "
            "asymptotic regime (>= 10)", stacklevel=2)
    return (1.0 / band.delta_min - 1.0 / band.delta_max) / t1 ** 2
