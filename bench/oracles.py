"""Independent checks of the outputs the benchmark's jobs write.

Everything here uses numpy and scipy only, never the package under test:
spin-chain Hamiltonians are rebuilt from their definitions, filter
products are evaluated in log space over compressed eigen-levels, and
band residuals use a fixed Gauss-Legendre rule.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, logsumexp

# Ratio grid of the reference search: twice the package's 240-point scan,
# log-spaced in (alpha - 1) over the same bounds.
REF_GRID_POINTS = 480
ALPHA_FLOOR = 1e-4
# Levels closer than this (relative to the spectral scale) are one level.
LEVEL_RTOL = 1e-10
# Overlap weights below this share of the total are eigensolver noise.
WEIGHT_FLOOR = 1e-24
# Smallest positive objective a double represents without losing digits.
REPRESENTABLE = 1e-290


# ---------------------------------------------------------------- schedules

def geometric_times(alpha: float, n: int, total: float) -> np.ndarray:
    """t_k = t1 alpha**-k, k = 0..n-1, summing to total (alpha = 1: uniform)."""
    if alpha == 1.0:
        return np.full(n, total / n)
    ratio = np.power(alpha, -np.arange(n, dtype=float))
    return total * ratio / ratio.sum()


def trotter_floor(times: np.ndarray, dt: float) -> np.ndarray:
    """Round down to multiples of dt (a time on a multiple stays), drop zeros."""
    steps = np.floor(times / dt + 1e-9)
    rounded = steps * dt
    return rounded[rounded > 0]


# -------------------------------------------------------------- band oracle

def band_density(preset: str):
    """Overlap density on [0, 1] of the schedule-fit presets."""
    if preset == "xi2":
        return lambda e: np.ones_like(e)
    if preset == "xi1":
        norm = 0.5 * math.sqrt(math.pi) * erf(1.0)
        return lambda e: np.exp(-e * e) / norm
    raise ValueError(f"unknown preset {preset!r}")


def gauss_legendre_residuals(density, lo: float, hi: float, e_target: float,
                             times: np.ndarray, nodes: int | None = None) -> np.ndarray:
    """Integral over [lo, hi] of density(E) * prod_n cos^2((E - E_t) t_n / 2)
    for each schedule row of ``times`` (zero entries are no-ops).

    The integrand is a trigonometric polynomial whose top frequency is the
    total time, so a single rule whose node count is well above
    total time x band width converges to roundoff; the default takes three
    times that product plus 96 nodes.
    """
    tm = np.atleast_2d(np.asarray(times, dtype=float))
    tm = tm[:, np.any(tm != 0.0, axis=0)]
    if nodes is None:
        nodes = 3 * math.ceil(float(tm.sum(axis=1).max(initial=0.0)) * (hi - lo)) + 96
    x, w = np.polynomial.legendre.leggauss(nodes)
    e = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    acc = np.tile(density(e) * (0.5 * (hi - lo)) * w, (tm.shape[0], 1))
    for column in tm.T:
        acc *= np.cos(0.5 * column[:, None] * (e - e_target)[None, :]) ** 2
    return acc.sum(axis=1)


# --------------------------------------------------------- spin-chain oracle

def _popcount(values: np.ndarray) -> np.ndarray:
    return np.array([bin(int(v)).count("1") for v in values])


def xx_chain(length: int, coupling: float = 1.0):
    """Open XX chain, zero-magnetization sector: (H, basis)."""
    states = np.arange(1 << length)
    basis = states[_popcount(states) == length // 2]
    index = {int(b): i for i, b in enumerate(basis)}
    h = np.zeros((len(basis), len(basis)))
    for i, b in enumerate(basis):
        for k in range(length - 1):
            if ((b >> k) & 1) != ((b >> (k + 1)) & 1):
                h[i, index[int(b ^ (3 << k))]] += coupling
    return h, basis


def tfim_chain(length: int, field: float, coupling: float = 1.0):
    """Periodic transverse-field Ising ring, even-parity sector: (H, basis).

    Each parity-even state pairs a bitstring with its global flip; the
    smaller integer represents the pair, so the basis is 0 .. 2**(L-1)-1.
    """
    full = (1 << length) - 1
    basis = np.arange(1 << (length - 1))
    h = np.zeros((len(basis), len(basis)))
    for i, b in enumerate(basis):
        b = int(b)
        rotated = ((b >> 1) | (b << (length - 1))) & full
        walls = bin(b ^ rotated).count("1")
        h[i, i] = -coupling * (length - 2 * walls)
        for site in range(length):
            f = b ^ (1 << site)
            h[i, min(f, full ^ f)] -= field
    return h, basis


class ChainReference:
    """Log-space filter objective of one chain and initial state.

    Eigen-overlaps are merged into distinct levels with nonzero weight,
    so infidelities far below the smallest double stay resolvable.
    """

    def __init__(self, model: str, length: int, field: float, state: str):
        if model == "xx":
            h, _ = xx_chain(length)
        else:
            h, _ = tfim_chain(length, field)
        energies, vectors = np.linalg.eigh(h)
        if state == "e1":
            psi = np.zeros(len(h))
            psi[1] = 1.0
        elif state == "plus":
            psi = np.full(len(h), 1.0 / math.sqrt(len(h)))
        else:
            raise ValueError(f"no reference for initial state {state!r}")
        weights = (vectors.T @ psi) ** 2
        scale = max(1.0, float(np.abs(energies).max()))
        e0 = float(energies[0])
        target = np.abs(energies - e0) <= LEVEL_RTOL * scale
        self.gap = float(np.abs(energies[~target] - e0).min())
        self.t0 = math.pi / self.gap
        self.sector_dim = len(h)
        self.target = _compress(energies[target] - e0, weights[target], scale)
        self.rest = _compress(energies[~target] - e0, weights[~target], scale)

    @property
    def levels(self) -> int:
        return len(self.rest[0]) + len(self.target[0])

    def log10_infidelity(self, times: np.ndarray) -> np.ndarray:
        """log10 of zeta / (zeta + target) for schedules stacked as rows."""
        tm = np.atleast_2d(np.asarray(times, dtype=float))
        log_zeta = _log_survival(*self.rest, tm)
        log_target = _log_survival(*self.target, tm)
        return (log_zeta - np.logaddexp(log_zeta, log_target)) / math.log(10.0)


def _compress(deltas: np.ndarray, weights: np.ndarray, scale: float):
    """(deltas, log weights) of distinct levels carrying nonzero weight."""
    order = np.argsort(deltas)
    d, w = deltas[order], weights[order]
    starts = np.concatenate([[True], np.diff(d) > LEVEL_RTOL * scale])
    group = np.cumsum(starts) - 1
    level_w = np.bincount(group, weights=w)
    level_d = np.bincount(group, weights=d * w) / np.where(level_w > 0, level_w, 1.0)
    level_d = np.where(level_w > 0, level_d, d[starts])
    keep = level_w > WEIGHT_FLOOR * max(float(weights.sum()), 1e-300)
    return level_d[keep], np.log(level_w[keep])


def _log_survival(deltas: np.ndarray, log_w: np.ndarray, tm: np.ndarray) -> np.ndarray:
    """log sum_k w_k prod_n cos^2(delta_k t_n / 2) for each row of tm."""
    if len(deltas) == 0:
        return np.full(tm.shape[0], -np.inf)
    acc = np.broadcast_to(log_w, (tm.shape[0], len(deltas))).copy()
    for column in tm.T:
        s = np.sin(0.5 * column[:, None] * deltas[None, :])
        with np.errstate(divide="ignore"):
            acc += np.log1p(-s * s)
    return logsumexp(acc, axis=1)


# ---------------------------------------------------------------- searches

def reference_alphas(lo: float, hi: float, points: int = REF_GRID_POINTS) -> np.ndarray:
    """Reference ratios over the search bounds, finer than the package scan."""
    lo_excess = max(lo - 1.0, ALPHA_FLOOR * (hi - 1.0))
    return 1.0 + np.geomspace(lo_excess, hi - 1.0, points)


def chain_gap_dex(ref: ChainReference, alpha: float, n: int, total: float,
                  lo: float = 1.0, hi: float = 2.0):
    """(log10 true objective at alpha, its gap in dex to the reference best)."""
    grid = reference_alphas(lo, hi)
    tm = np.array([geometric_times(a, n, total) for a in np.append(grid, alpha)])
    logs = ref.log10_infidelity(tm)
    return float(logs[-1]), float(logs[-1] - logs[:-1].min())


def band_gap_dex(density, e_target: float, alpha: float, n: int, total: float,
                 dt: float, lo: float = 1.0, hi: float = 2.0):
    """(true zeta at alpha, gap in dex to the best reference ratio) after
    Trotter rounding, on the unit band [0, 1]."""
    alphas = np.append(reference_alphas(lo, hi), alpha)
    tm = np.zeros((len(alphas), n))
    for row, a in zip(tm, alphas):
        rounded = trotter_floor(geometric_times(a, n, total), dt)
        row[:len(rounded)] = rounded
    zetas = gauss_legendre_residuals(density, 0.0, 1.0, e_target, tm)
    return float(zetas[-1]), float(np.log10(zetas[-1]) - np.log10(zetas[:-1].min()))


def agrees(reported: float, true: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(reported - true) <= rtol * abs(true) + atol
