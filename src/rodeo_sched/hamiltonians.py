"""Exact-diagonalization backends for spin-chain benchmarks.

Two models: the spin-1/2 XX chain with open boundaries, solved in the
zero-magnetization sector, and the transverse-field Ising model (TFIM)
with periodic boundaries, solved in the even-parity sector. Both are
projected onto their symmetry sector, diagonalized block by block over
the sector's commuting involutions (sector_symmetries; sector_energies
gives every block's eigenvalues, state_spectrum eigenvectors only to the
blocks an initial state touches), and used to evaluate filtering
fidelities exactly in the eigenbasis (no Trotterized time evolution is
simulated here). eigendecompose is the dense reference they are tested
against.

Basis convention: a computational state is an integer whose bit i
(least significant = site 0, the leftmost site) is 1 when site i is
spin-up. Sector bases list these integers in increasing order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectral import DiscreteSpectrum, LevelSet

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


def _reflect(values: np.ndarray, length: int) -> np.ndarray:
    out = np.zeros_like(values)
    for site in range(length):
        out |= ((values >> site) & 1) << (length - 1 - site)
    return out


def sector_symmetries(spec: HamiltonianSpec) -> tuple:
    """Index maps, on sector_basis(spec), of commuting involutions of the chain.

    Map p sends basis state i to state p[i]. They are: the site
    reflection j -> L-1-j (both models, every sector); the half-ring
    translation j -> j+L/2 mod L (TFIM, even L); and the global spin
    flip, except in even_parity, whose basis already divides it out. In
    even_parity an image is replaced by its representative min(b, flip b),
    which is a plain permutation because the sector's parity is +1.
    """
    basis = sector_basis(spec)
    length = spec.length
    images = [_reflect(basis, length)]
    if spec.model == "tfim" and length % 2 == 0:
        half = length // 2
        images.append(((basis >> half) | (basis << half)) & ((np.int64(1) << length) - 1))
    if spec.sector == "even_parity":
        images = [np.minimum(b, _flip_all(b, length)) for b in images]
    else:
        images.append(_flip_all(basis, length))
    return tuple(np.searchsorted(basis, b) for b in images)


@dataclass(frozen=True)
class EigenSystem:
    """Full ascending spectrum and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sector_dim: int


def _involution_group(maps, m: np.ndarray, nonzero: tuple) -> np.ndarray:
    """(|G|, n) index maps of the group that ``maps`` generate; row g is
    the product of the independent generators named by the bits of g.

    Each map must be an involution of the indices of ``m`` that commutes
    with it exactly and with every other map; ``nonzero`` holds the row
    and column indices of m's nonzero entries. A permutation p that
    keeps each nonzero entry, m[p[i], p[j]] == m[i, j], keeps the
    matrix, m[p][:, p] == m: it maps the nonzero entries one to one onto
    nonzero entries, and so the zeros onto zeros."""
    n = len(m)
    identity = np.arange(n)
    elements, seen = [identity], []
    for p in maps:
        p = np.asarray(p)
        if (p.shape != (n,) or p.dtype.kind not in "iu" or p.min() < 0 or p.max() >= n
                or not np.array_equal(p[p], identity)):
            raise ValueError("a symmetry must be an involution of the basis indices")
        if not np.array_equal(m[p[nonzero[0]], p[nonzero[1]]], m[nonzero]):
            raise ValueError("a symmetry does not commute with the matrix")
        if any(not np.array_equal(p[q], q[p]) for q in seen):
            raise ValueError("the symmetries do not commute with each other")
        seen.append(p)
        if not any(np.array_equal(p, g) for g in elements):
            elements += [p[g] for g in elements]
    return np.array(elements)


def _character_blocks(matrix, symmetries) -> tuple:
    """(images, stabilizer, blocks): the matrix split into one block per
    character of its symmetries.

    ``symmetries`` are index maps p of involutions of the basis (basis
    vector i goes to p[i]) that commute with the matrix exactly,
    ``m[p][:, p] == m``, and with each other; sector_symmetries gives a
    chain's. They generate an abelian group G of order 2**k. Each of its
    characters chi (a sign per independent generator) has a block over
    the orbit representatives r (the least index of each orbit) that chi
    allows, those on whose stabilizer S_r chi is 1. Its basis vectors are
    |r> = sum_g chi(g) |g r> / sqrt(|G| |S_r|), orthonormal, so
    block[j, k] = sum_g chi(g) m[r_j, g r_k] / sqrt(|S_j| |S_k|), read
    off the representatives' rows. With no symmetries G is {identity}:
    one block, the matrix itself.

    images (|G|, R) holds g r for every group element g and
    representative r, stabilizer holds |S_r|, and blocks yields
    (chi, allowed, block) for each character that allows a
    representative, in character order. Checks the matrix and the maps
    first: raises ValueError on a non-square or asymmetric matrix, and on
    maps that are not commuting involutions of it."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # Both checks read only the nonzero entries; np.nonzero on the float
    # matrix itself takes several times longer than on its mask.
    nonzero = np.divmod(np.flatnonzero(m != 0), m.shape[0])
    values = m[nonzero]
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    asym = float(np.abs(values - m[nonzero[::-1]]).max(initial=0.0))
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    n = m.shape[0]
    group = _involution_group(symmetries, m, nonzero)
    order = len(group)
    reps = np.flatnonzero(group.min(axis=0) == np.arange(n))
    images = group[:, reps]  # (|G|, R): g r for every representative r
    fixed = images == reps
    stabilizer = fixed.sum(axis=0)

    def blocks():
        for char in range(order):
            # chi(g) = -1 to the number of generators that g and chi share
            chi = np.array([-1.0 if bin(g & char).count("1") % 2 else 1.0
                            for g in range(order)])
            allowed = ~np.any(fixed & (chi[:, None] < 0), axis=0)
            if not allowed.any():
                continue
            # gathered from m directly: a copy of the representatives' rows
            # would take (R, n) doubles more, 137 MB for TFIM L = 14
            rows = reps[allowed][:, None]
            block = m[rows, images[0, allowed]]  # g = identity, chi = 1
            for g in range(1, order):
                block += chi[g] * m[rows, images[g, allowed]]
            norm = 1.0 / np.sqrt(stabilizer[allowed])
            block *= norm[:, None] * norm
            yield chi, allowed, block
    return images, stabilizer, blocks()


def eigendecompose(matrix: np.ndarray) -> EigenSystem:
    """Dense symmetric eigensolve, the test oracle of the block solves:
    the whole spectrum, ascending, with orthonormal eigenvector columns,
    from one eigh. Raises ValueError on a non-square or asymmetric matrix.
    """
    m = np.asarray(matrix, dtype=float)
    _character_blocks(m, ())  # only its checks: with no symmetries its one block is m
    energies, vectors = np.linalg.eigh(m)
    return EigenSystem(eigenvalues=energies, eigenvectors=vectors, sector_dim=len(m))


def sector_energies(matrix: np.ndarray, symmetries) -> np.ndarray:
    """The whole spectrum of ``matrix``, ascending: eigh's eigenvalues of
    each of _character_blocks' blocks, which state_spectrum gives bit for
    bit on the blocks it solves with eigh. Raises ValueError as
    _character_blocks does."""
    _, _, blocks = _character_blocks(matrix, symmetries)
    return np.sort(np.concatenate([np.linalg.eigh(block)[0] for *_, block in blocks]),
                   kind="stable")


def state_spectrum(matrix: np.ndarray, symmetries, psi: InitialState) -> tuple:
    """(energies, weights): the whole spectrum of ``matrix``, ascending,
    and the weight |<v|psi>|**2 of ``psi`` on each eigenvector v, from
    _character_blocks' blocks, with no eigenvector of the whole basis.

    ``psi``'s coordinates in the block basis of character chi are
    c_r = sum_g chi(g) psi[g r] / sqrt(|G| |S_r|). A block with a nonzero
    c goes to eigh, and its levels weigh (vecs.T @ c)**2; any other
    block goes to eigvalsh, and its levels weigh exactly 0. An eigh
    block's energies are sector_energies' bit for bit; eigvalsh's can
    differ from eigh's in the last bits. Raises ValueError as
    _character_blocks does, and on a state of another dimension.
    """
    images, stabilizer, blocks = _character_blocks(matrix, symmetries)
    if len(psi.vector) != np.shape(matrix)[0]:
        raise ValueError(f"state has dimension {len(psi.vector)}, "
                         f"the matrix {np.shape(matrix)[0]}")
    coords = psi.vector[images] / np.sqrt(len(images) * stabilizer)
    energies, weights = [], []
    for chi, allowed, block in blocks:
        c = chi @ coords[:, allowed]
        if c.any():
            vals, vecs = np.linalg.eigh(block)
            weights.append((vecs.T @ c) ** 2)
        else:
            vals = np.linalg.eigvalsh(block)
            weights.append(np.zeros(len(vals)))
        energies.append(vals)
    energies = np.concatenate(energies)
    ascending = np.argsort(energies, kind="stable")
    return energies[ascending], np.concatenate(weights)[ascending]


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
    """Reusable filtering evaluator for one (spectrum, state weights, target).

    Prepares the level sets of a DiscreteSpectrum (DiscreteSpectrum.levels)
    once, as LevelSets; every evaluation sums each in log space.
    batch and weights take schedules as the columns of an
    (n_samples, n_schedules) matrix: batch returns the post-selected
    infidelity zeta / (target + zeta) of each column, log_infidelity its
    log, fidelity target / (target + zeta), and weights the raw surviving
    (zeta, target weight). value(times) is the one-schedule case of batch.

    from_levels builds it from energies and the state's weight on each,
    as state_spectrum gives them (the chain commands' path);
    RodeoObjective(eig, psi, e_target) takes the weights from the vectors
    of an EigenSystem, such as the dense reference eigendecompose's.

    Levels whose weight float64 cannot resolve are dropped: an overlap
    v.psi of unit vectors of dimension n carries about n * eps of
    round-off, so a weight at or below (n * eps)**2 of the total is noise,
    typically an overlap that a symmetry makes zero. Dropping a level
    changes zeta or the target weight by at most that level's weight,
    since no cycle factor exceeds 1. An energy of a block that
    state_spectrum leaves unsolved weighs exactly 0; a level made only of
    such energies is dropped alike, and one it shares with a solved
    block weighs what the solved block gives it. The TFIM L = 10 plus
    state scores 30 of its 120 non-target levels, of weight 5.7e-6 and up;
    the other 90 weigh 1.1e-30 or less (one exactly 0), against a floor of
    1.3e-26. ``levels`` counts the non-target levels scored and
    ``levels_below_resolution`` the levels dropped, in and outside the
    target manifold; ``work``, the calls, columns and one-column calls.
    """

    def __init__(self, eig: EigenSystem, psi: InitialState, e_target: float):
        self._take_levels(eig.eigenvalues, (eig.eigenvectors.T @ psi.vector) ** 2,
                          len(psi.vector), e_target)

    @classmethod
    def from_levels(cls, energies, weights, dimension: int,
                    e_target: float) -> RodeoObjective:
        """The objective of a state with weight weights[i] on energy
        energies[i], in a space of ``dimension`` states."""
        objective = cls.__new__(cls)
        objective._take_levels(energies, weights, dimension, e_target)
        return objective

    def _take_levels(self, energies, weights, dimension: int, e_target: float) -> None:
        floor = (dimension * np.finfo(float).eps) ** 2 * float(np.sum(weights))
        *sets, self.levels_below_resolution = DiscreteSpectrum(
            energies, weights).levels(e_target, floor)
        self._target, self._rest = (LevelSet(*pair) for pair in sets)
        self.levels = self._rest.deltas.size
        self.work = dict.fromkeys(("objective_calls", "schedules_scored", "one_column_calls"), 0)

    def _log_weights(self, times_matrix) -> tuple:
        """(log zeta, log target weight), each (S,), for (N, S) schedules."""
        tm = np.asarray(times_matrix, dtype=float)
        self.work["objective_calls"] += 1
        self.work["schedules_scored"] += tm.shape[1]
        self.work["one_column_calls"] += tm.shape[1] == 1
        return self._rest.log_surviving(tm), self._target.log_surviving(tm)

    def weights(self, times_matrix) -> tuple:
        """(zeta, target weight), each (S,): the surviving weights outside
        and inside the target manifold of (N, S) schedules, unnormalized."""
        log_zeta, log_target = self._log_weights(times_matrix)
        return np.exp(log_zeta), np.exp(log_target)

    def value(self, times: np.ndarray) -> float:
        return float(self.batch(np.asarray(times, dtype=float)[:, None])[0])

    def log_infidelity(self, times_matrix) -> np.ndarray:
        """log of batch, (S,): log zeta - log(zeta + target), the ratio
        searches' objective, resolved far below the smallest double."""
        log_zeta, log_target = self._log_weights(times_matrix)
        return log_zeta - np.logaddexp(log_zeta, log_target)

    def fidelity(self, times_matrix) -> np.ndarray:
        """target / (zeta + target), (S,), from the log weights: every
        digit kept where the fidelity is small, which 1 - batch loses."""
        log_zeta, log_target = self._log_weights(times_matrix)
        return np.exp(log_target - np.logaddexp(log_zeta, log_target))

    def batch(self, times_matrix: np.ndarray) -> np.ndarray:
        return np.exp(self.log_infidelity(times_matrix))
