"""Large-N suppression behavior of geometric schedules.

The surviving weight of a level at gap scale theta under a geometric
schedule with ratio 1/alpha is governed by the cosine product

    C(alpha, theta, N) = prod_{n=1..N} cos((alpha - 1) theta / alpha**n) ** 2

At alpha = 2 the infinite product telescopes to (sin theta / theta)**2.
For alpha -> 1+ with b = (alpha - 1) theta held fixed, every factor is
cos(b)**2 up to O(1/theta) and the product decays exponentially in N.
For generic alpha the envelope of C decays like theta**-gamma; when
alpha is a Pisot number the product famously fails to decay at all
(its limsup over theta stays positive), so fits must detect and flag
that case rather than report a slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import log_survival, log_survival_grid

# Enumeration cap for the 2**N expansion cross-check.
MAX_FOURIER_N = 24

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
PLASTIC_NUMBER = 1.3247179572447460
# Demonstration table of ratios whose cosine products do not decay,
# plus alpha = 2, which is Pisot yet decays (the product telescopes).
PISOT_EXAMPLES = {
    "golden_ratio": GOLDEN_RATIO,
    "plastic_number": PLASTIC_NUMBER,
    "two": 2.0,
}

# Truncate infinite products once the argument drops below this.
_TRUNCATION_ARG = 1e-10


def _auto_terms(alpha: float, theta: float) -> int:
    scale = (alpha - 1.0) * abs(theta)
    if scale <= _TRUNCATION_ARG:
        return 1
    return max(1, int(math.ceil(math.log(scale / _TRUNCATION_ARG) / math.log(alpha))))


def _product_times(alpha: float, n_terms: int) -> np.ndarray:
    """Factor n of C is the survival of a level at offset theta under a
    cycle of time 2 (alpha - 1) alpha**-n, so C is the kernel's product
    over these cycles."""
    if n_terms < 1:
        raise ValueError("n_terms must be a positive integer")
    return 2.0 * (alpha - 1.0) * alpha ** -np.arange(1.0, int(n_terms) + 1.0)


def product_function(alpha: float, theta, n_terms: int | None = None):
    """C(alpha, theta, N): the squared-cosine suppression product.

    ``theta`` may be an array. ``n_terms`` = None truncates the infinite
    product once the factor argument falls below 1e-10 (the remaining
    tail differs from 1 by under 1e-20).
    """
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    th = np.asarray(theta, dtype=float)
    if n_terms is None:
        n_terms = _auto_terms(alpha, float(np.max(np.abs(th))) if th.size else 0.0)
    times = _product_times(alpha, n_terms)
    value = np.exp(log_survival(th.ravel(), times[:, None])[:, 0]).reshape(th.shape)
    if value.ndim == 0:
        return float(value)
    return value


def fourier_expansion(alpha: float, theta: float, n_terms: int) -> float:
    """C via the discrete cosine expansion of the product amplitude.

    prod_n cos(a_n) = 2**-N sum over sign vectors s of cos(sum_n s_n a_n)
    with a_n = (alpha - 1) theta / alpha**n; squaring the amplitude gives
    C exactly. The frequencies sum_n s_n alpha**-n are the Bernoulli
    convolution spectrum of ratio 1/alpha. Exponential in N; capped at
    MAX_FOURIER_N.
    """
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    n = int(n_terms)
    if n < 1:
        raise ValueError("n_terms must be a positive integer")
    if n > MAX_FOURIER_N:
        raise ValueError(f"n_terms = {n} exceeds the 2**N expansion cap ({MAX_FOURIER_N})")
    freqs = np.zeros(1)
    for k in range(1, n + 1):
        a_k = alpha ** -k
        freqs = np.concatenate([freqs - a_k, freqs + a_k])
    amplitude = np.mean(np.cos((alpha - 1.0) * theta * freqs))
    return float(amplitude ** 2)


def rra_average_success(delta_e: float, sigma: float, n_cycles: int = 1) -> float:
    """Mean surviving weight of a level at gap delta_e under random times.

    Times drawn as sigma |z| with z standard normal give a one-cycle
    average of (1 + exp(-delta_e**2 sigma**2 / 2)) / 2; independent
    cycles multiply.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if n_cycles < 1:
        raise ValueError("n_cycles must be a positive integer")
    one = 0.5 * (1.0 + math.exp(-0.5 * (delta_e * sigma) ** 2))
    return one ** n_cycles


@dataclass(frozen=True)
class DecayFitResult:
    """Power-law fit of the suppression envelope.

    gamma is the fitted exponent of envelope ~ theta**-gamma; residual
    is the RMS misfit in log space. non_decaying marks envelopes whose
    running maximum holds a fixed floor across the fitted range (the
    Pisot signature: limsup C > 0), in which case gamma is not a decay
    rate and should not be quoted as one. work holds decay_envelope's
    exact work counts.
    """

    gamma: float
    theta_range: tuple
    residual: float
    non_decaying: bool
    window_centers: np.ndarray
    window_maxima: np.ndarray
    work: dict


# Envelope floor test: the envelope is non-decaying when its running
# maximum over the last fifth of the windows retains at least this
# fraction of the running maximum over the first fifth. Calibrated on
# two decades of theta: golden ratio 0.98 and plastic number 0.76
# (floors hold) vs 0.17 or less for every sampled non-Pisot ratio.
_NON_DECAY_DROP = 0.5


def decay_envelope(alpha: float, theta_min: float, theta_max: float,
                   n_windows: int = 50, n_limit: int | None = None, work: dict | None = None):
    """Windowed maxima of C(alpha, theta) over log-spaced theta windows.

    Returns (centers, maxima): geometric window centers and the maximum
    of the truncated infinite product within each window. Sampling step
    0.2 in theta resolves the order-unity peak widths of the product.
    Each window's evenly spaced samples go through log_survival_grid, so
    its long factors are summed by angle addition. ``work``, a dict, gets
    the exact counts: "theta_samples", "factors_per_sample", and under
    "factors" those summed by the short-phase series, by cos and by angle
    addition.
    """
    if not theta_max > theta_min > 0:
        raise ValueError("need 0 < theta_min < theta_max")
    if int(n_windows) < 1:
        raise ValueError(f"n_windows must be a positive integer, got {n_windows}")
    edges = np.geomspace(theta_min, theta_max, int(n_windows) + 1)
    if n_limit is None:
        n_limit = _auto_terms(alpha, theta_max)
    times = _product_times(alpha, n_limit)
    centers = np.sqrt(edges[:-1] * edges[1:])
    maxima = np.empty(int(n_windows))
    factors = {"series": 0, "cos": 0, "angle_addition": 0}
    samples = 0
    for i in range(int(n_windows)):
        count = max(32, int(math.ceil((edges[i + 1] - edges[i]) / 0.2)) + 1)
        logs = log_survival_grid(edges[i], edges[i + 1], count, times, factors)
        maxima[i] = math.exp(logs.max())
        samples += count
    if work is not None:
        work.update(theta_samples=samples, factors_per_sample=times.size, factors=factors)
    return centers, maxima


def fit_decay_exponent(alpha: float, theta_max: float, n_limit: int | None = None,
                       *, theta_min: float = 100.0, n_windows: int = 50) -> DecayFitResult:
    """Fit envelope ~ theta**-gamma from windowed maxima of C.

    Least squares on log(max) vs log(theta center). Requires at least
    20 usable windows. The non_decaying flag is raised when the
    running maximum over the last fifth of the windows retains at
    least half the running maximum over the first fifth: Pisot ratios
    (golden ratio, plastic number) hold their envelope at a positive
    floor, so no decay exponent exists and the fitted gamma is
    reported for completeness only.
    """
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if theta_max < 1e3:
        raise ValueError("theta_max must reach at least 1e3 for a stable fit")
    work = {}
    centers, maxima = decay_envelope(alpha, theta_min, theta_max, n_windows, n_limit, work)
    good = maxima > 0
    if good.sum() < 20:
        raise ValueError(f"only {int(good.sum())} usable envelope points; need >= 20")
    x = np.log(centers[good])
    y = np.log(maxima[good])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    gamma = -float(slope)
    fifth = max(1, len(maxima) // 5)
    head = float(maxima[:fifth].max())
    tail = float(maxima[-fifth:].max())
    return DecayFitResult(
        gamma=gamma,
        theta_range=(float(theta_min), float(theta_max)),
        residual=resid,
        non_decaying=head > 0 and tail >= _NON_DECAY_DROP * head,
        window_centers=centers,
        window_maxima=maxima,
        work=work,
    )
