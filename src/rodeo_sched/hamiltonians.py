"""Exact-diagonalization backends for spin-chain benchmarks.

Two models: the spin-1/2 XX chain with open boundaries, solved in the
zero-magnetization sector, and the transverse-field Ising model (TFIM)
with periodic boundaries, solved in the even-parity sector. Both are
projected onto their symmetry sector, densely diagonalized, and used
to evaluate filtering fidelities exactly in the eigenbasis (no
Trotterized time evolution is simulated here).

Basis convention: a computational state is an integer whose bit i
(least significant = site 0, the leftmost site) is 1 when site i is
spin-up. Sector bases list these integers in increasing order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import DiscreteSpectrum, level_gap, log_surviving

MAX_LENGTH = 16
# Dense-diagonalization guard; C(16,8) fits, full 2**16 does not.
MAX_SECTOR_DIM = 16384

_MODELS = ("xx", "tfim")
_SECTORS = ("zero_magnetization", "even_parity", "full")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Model, size, couplings, and symmetry sector of a benchmark chain.

    The XX chain is open and supports the zero_magnetization (even
    length) and full sectors; the TFIM is a periodic ring and supports
    even_parity and full. An omitted sector falls back to the model's
    native one (zero_magnetization or even_parity).
    """

    model: str
    length: int
    coupling: float = 1.0
    field: float = 0.0
    sector: str = ""

    def __post_init__(self):
        model = self.model.lower()
        if model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {_MODELS}")
        object.__setattr__(self, "model", model)
        if not 2 <= self.length <= MAX_LENGTH:
            raise ValueError(f"length must be in [2, {MAX_LENGTH}], got {self.length}")
        if not np.isfinite(self.coupling) or not np.isfinite(self.field):
            raise ValueError("coupling and field must be finite")
        native_sector = "zero_magnetization" if model == "xx" else "even_parity"
        sector = (self.sector or native_sector).lower()
        if sector not in _SECTORS:
            raise ValueError(f"unknown sector {self.sector!r}; expected one of {_SECTORS}")
        if model == "xx" and sector == "even_parity":
            raise ValueError("the XX chain does not conserve parity; use zero_magnetization or full")
        if model == "tfim" and sector == "zero_magnetization":
            raise ValueError("the TFIM does not conserve magnetization; use even_parity or full")
        if sector == "zero_magnetization" and self.length % 2:
            raise ValueError("zero_magnetization sector requires even length")
        object.__setattr__(self, "sector", sector)


def _popcount(values: np.ndarray) -> np.ndarray:
    counts = np.zeros_like(values)
    v = values.copy()
    while np.any(v):
        counts += v & 1
        v >>= 1
    return counts


def sector_basis(spec: HamiltonianSpec) -> np.ndarray:
    """Ordered integer basis of the sector (increasing bitstring value).

    even_parity lists orbit representatives of the global spin flip;
    the representative of {b, flip(b)} is the smaller integer, so the
    representatives are exactly 0 .. 2**(L-1) - 1.
    """
    full = np.arange(1 << spec.length, dtype=np.int64)
    if spec.sector == "full":
        return full
    if spec.sector == "zero_magnetization":
        return full[_popcount(full) == spec.length // 2]
    return np.arange(1 << (spec.length - 1), dtype=np.int64)


def build_sector_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    """Real symmetric Hamiltonian matrix in the ordered sector basis."""
    basis = sector_basis(spec)
    dim = len(basis)
    if dim > MAX_SECTOR_DIM:
        raise ValueError(f"sector dimension {dim} exceeds the dense-solve limit {MAX_SECTOR_DIM}")
    if spec.model == "xx":
        return _xx_matrix(basis, spec.length, spec.coupling)
    return _tfim_matrix(basis, spec)


def _xx_matrix(basis: np.ndarray, length: int, coupling: float) -> np.ndarray:
    # J (s+ s- + s- s+) per open-chain bond: off-diagonal element J
    # between states differing by one anti-aligned neighbor swap.
    dim = len(basis)
    h = np.zeros((dim, dim))
    for k in range(length - 1):
        pair = np.int64(0b11) << k
        swap = basis & pair
        active = (swap != 0) & (swap != pair)
        flipped = basis[active] ^ pair
        cols = np.searchsorted(basis, flipped)
        h[np.nonzero(active)[0], cols] += coupling
    return h


def _flip_all(values: np.ndarray, length: int) -> np.ndarray:
    return ((np.int64(1) << length) - 1) ^ values


def _tfim_matrix(basis: np.ndarray, spec: HamiltonianSpec) -> np.ndarray:
    # -J sum_i sz_i sz_{i+1} - h sum_i sx_i on the periodic ring.
    length, j, hx = spec.length, spec.coupling, spec.field
    dim = len(basis)
    rotated = ((basis >> 1) | (basis << (length - 1))) & ((np.int64(1) << length) - 1)
    walls = _popcount(basis ^ rotated)
    h = np.diag(-j * (length - 2.0 * walls))
    rows = np.arange(dim)
    for site in range(length):
        flipped = basis ^ (np.int64(1) << site)
        if spec.sector == "even_parity":
            flipped = np.minimum(flipped, _flip_all(flipped, length))
        cols = np.searchsorted(basis, flipped)
        h[rows, cols] += -hx
    return h


@dataclass(frozen=True)
class EigenSystem:
    """Full ascending spectrum and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sector_dim: int


def eigendecompose(matrix: np.ndarray) -> EigenSystem:
    """Dense symmetric eigensolve; rejects asymmetric input."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    asym = float(np.abs(m - m.T).max())
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    vals, vecs = np.linalg.eigh(m)
    return EigenSystem(eigenvalues=vals, eigenvectors=vecs, sector_dim=m.shape[0])


def minimum_gap(eig: EigenSystem, e_target: float | None = None) -> float:
    """Distance from the target manifold to the nearest other level."""
    e_t = float(eig.eigenvalues[0]) if e_target is None else float(e_target)
    return level_gap(eig.eigenvalues, e_t)


@dataclass(frozen=True)
class InitialState:
    """Normalized state vector expressed in the ordered sector basis."""

    vector: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise ValueError("state vector must be a finite 1-D array")
        norm = float(np.linalg.norm(v))
        if norm <= 0:
            raise ValueError("state vector must be nonzero")
        object.__setattr__(self, "vector", v / norm)


def _xx_block_ground(length: int, n_up: int, coupling: float):
    """(energy, vector, basis) of the n_up sector ground state of an
    open XX block, with sign fixed by the largest-amplitude component."""
    full = np.arange(1 << length, dtype=np.int64)
    basis = full[_popcount(full) == n_up]
    h = _xx_matrix(basis, length, coupling)
    eig = eigendecompose(h)
    vec = eig.eigenvectors[:, 0]
    anchor = int(np.argmax(np.abs(vec)))
    if vec[anchor] < 0:
        vec = -vec
    return float(eig.eigenvalues[0]), vec, basis


def _fusion_vector(spec: HamiltonianSpec, basis: np.ndarray) -> np.ndarray:
    """Half-chain tensor-product ansatz embedded in the full sector.

    Each half is an open XX block of L/2 sites solved in a fixed
    up-spin sector; the ansatz is the single product state of the two
    block ground states whose counts sum to L/2 with minimal total
    energy. Odd halves leave a zero-energy block mode, so the splits
    (n, L/2 - n) and (L/2 - n, n) tie; the tie is resolved
    deterministically by giving the left block the smaller count (for
    L = 10 this is the (2, 3) split). The two tied products have equal
    fidelity with the full-chain ground state by reflection symmetry.
    """
    if spec.length % 2:
        raise ValueError("fusion splitting requires even length")
    half = spec.length // 2
    spins = half  # total up-spins in the zero-magnetization sector
    blocks = {}
    for n in range(max(0, spins - half), min(half, spins) + 1):
        blocks[n] = _xx_block_ground(half, n, spec.coupling)
    totals = {n: blocks[n][0] + blocks[spins - n][0] for n in blocks}
    best = min(totals.values())
    tol = 1e-10 * max(1.0, abs(best))
    n_left = min(n for n, total in totals.items() if total - best <= tol)
    _, left, left_basis = blocks[n_left]
    _, right, right_basis = blocks[spins - n_left]
    states = left_basis[:, None] | (right_basis[None, :] << half)
    amps = left[:, None] * right[None, :]
    vec = np.zeros(len(basis))
    vec[np.searchsorted(basis, states.ravel())] = amps.ravel()
    return vec


def make_initial_state(spec: HamiltonianSpec, kind: str, *,
                       basis_index: int | None = None) -> InitialState:
    """Construct one of the benchmark initial states.

    kinds: "basis_index" (the basis_index-th vector of the ordered
    sector basis), "fusion" (XX zero-magnetization only: embedded
    product of half-chain block ground states), "plus_projected"
    (TFIM: the all-|+> product state, already parity-even). Any other
    state is InitialState(vector=...) in the ordered sector basis.
    """
    basis = sector_basis(spec)
    dim = len(basis)
    if kind == "basis_index":
        if basis_index is None or not 0 <= basis_index < dim:
            raise ValueError(f"basis_index must lie in [0, {dim}), got {basis_index}")
        v = np.zeros(dim)
        v[basis_index] = 1.0
        return InitialState(v)
    if kind == "fusion":
        if spec.model != "xx" or spec.sector != "zero_magnetization":
            raise ValueError("fusion ansatz is defined for the XX zero-magnetization sector")
        return InitialState(_fusion_vector(spec, basis))
    if kind == "plus_projected":
        if spec.model != "tfim":
            raise ValueError("plus_projected is a TFIM initial state")
        return InitialState(np.full(dim, 1.0 / np.sqrt(dim)))
    raise ValueError(f"unknown initial-state kind {kind!r}")


class RodeoObjective:
    """Reusable filtering evaluator for one (eigensystem, state, target).

    Reads the eigenbasis overlaps once as the two level sets of a
    DiscreteSpectrum (DiscreteSpectrum.levels); every evaluation sums each
    set in log space with log_surviving. batch and weights take schedules
    as the columns of an (n_samples, n_schedules) matrix: batch returns the
    post-selected infidelity zeta / (target + zeta) of each column, and
    weights the raw surviving (zeta, target weight). value(times) is the
    one-schedule case of batch.

    Levels whose weight float64 cannot resolve are dropped: an overlap
    v.psi of unit vectors of dimension n carries about n * eps of
    round-off, so a weight at or below (n * eps)**2 of the total is noise,
    typically an overlap that a symmetry makes zero (TFIM L = 10 plus
    state: 90 of 120 non-target levels, all below 3e-30, against a floor
    of 1.3e-26; its real levels weigh 5.7e-6 and up). Dropping a level
    changes zeta or the target weight by at most that level's weight,
    since no cycle factor exceeds 1. ``levels`` counts the non-target
    levels scored and ``levels_below_resolution`` the levels dropped, in
    and outside the target manifold.
    """

    def __init__(self, eig: EigenSystem, psi: InitialState, e_target: float):
        weights = (eig.eigenvectors.T @ psi.vector) ** 2
        floor = (len(psi.vector) * np.finfo(float).eps) ** 2 * float(weights.sum())
        self._target, self._rest, self.levels_below_resolution = DiscreteSpectrum(
            eig.eigenvalues, weights).levels(e_target, floor)
        self.levels = len(self._rest[0])

    def _log_weights(self, times_matrix) -> tuple:
        """(log zeta, log target weight), each (S,), for (N, S) schedules."""
        tm = np.asarray(times_matrix, dtype=float)
        return log_surviving(*self._rest, tm), log_surviving(*self._target, tm)

    def weights(self, times_matrix) -> tuple:
        """(zeta, target weight), each (S,): the surviving weights outside
        and inside the target manifold of (N, S) schedules, unnormalized."""
        log_zeta, log_target = self._log_weights(times_matrix)
        return np.exp(log_zeta), np.exp(log_target)

    def value(self, times: np.ndarray) -> float:
        return float(self.batch(np.asarray(times, dtype=float)[:, None])[0])

    def batch(self, times_matrix: np.ndarray) -> np.ndarray:
        log_zeta, log_target = self._log_weights(times_matrix)
        return np.exp(log_zeta - np.logaddexp(log_zeta, log_target))
