"""Sector exact diagonalization and the filtering objective on its states.

Cross-checks build the full 2**L Hamiltonian from Kronecker products
in-test and compare sector eigenvalues against it, so the packed
sector construction is validated independently.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rodeo_sched import (DiscreteSpectrum, EigenSystem, HamiltonianSpec, InitialState,
                         RodeoObjective, TimeSchedule, build_sector_hamiltonian, eigendecompose,
                         make_initial_state, sector_basis, sector_energies, sector_symmetries,
                         state_spectrum)
from rodeo_sched.cli import main
from rodeo_sched.hamiltonians import _character_blocks
from rodeo_sched.spectral import level_gap

EPS = np.finfo(float).eps

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
ID = np.eye(2)


def _kron_site(op, site, length):
    # site 0 acts on the least significant bit
    mats = [ID] * length
    mats[site] = op
    out = np.array([[1.0]])
    for m in reversed(mats):
        out = np.kron(out, m)
    return out


def _full_xx(length, coupling):
    dim = 2**length
    h = np.zeros((dim, dim))
    for i in range(length - 1):
        term = (_kron_site(SX, i, length) @ _kron_site(SX, i + 1, length)
                + np.real(_kron_site(SY, i, length) @ _kron_site(SY, i + 1, length)))
        h += coupling / 2.0 * np.real(term)
    return h


def _full_tfim(length, coupling, field):
    dim = 2**length
    h = np.zeros((dim, dim))
    for i in range(length):
        j = (i + 1) % length
        h -= coupling * np.real(_kron_site(SZ, i, length) @ _kron_site(SZ, j, length))
        h -= field * _kron_site(SX, i, length)
    return h


def test_xx_two_sites_matrix():
    spec = HamiltonianSpec(model="xx", length=2)
    h = build_sector_hamiltonian(spec)
    np.testing.assert_array_equal(h, [[0.0, 1.0], [1.0, 0.0]])


def test_xx_basis_is_sorted_fixed_magnetization():
    spec = HamiltonianSpec(model="xx", length=4)
    basis = sector_basis(spec)
    assert list(basis) == [3, 5, 6, 9, 10, 12]
    assert all(bin(b).count("1") == 2 for b in basis)


def test_xx_sector_matches_full_diagonalization():
    length, coupling = 6, 1.3
    spec = HamiltonianSpec(model="xx", length=length, coupling=coupling)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    full = np.linalg.eigvalsh(_full_xx(length, coupling))
    # sector eigenvalues must all appear in the full spectrum
    for e in eig.eigenvalues:
        assert np.min(np.abs(full - e)) < 1e-10


def test_tfim_sector_matches_full_diagonalization():
    length, coupling, field = 6, 1.0, 1.7
    spec = HamiltonianSpec(model="tfim", length=length, coupling=coupling,
                           field=field)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    full_h = _full_tfim(length, coupling, field)
    full = np.linalg.eigvalsh(full_h)
    for e in eig.eigenvalues:
        assert np.min(np.abs(full - e)) < 1e-10
    # the even-parity sector contains the global ground state
    np.testing.assert_allclose(eig.eigenvalues[0], full[0], atol=1e-10)


def test_tfim_commutes_with_parity():
    length = 6
    full_h = _full_tfim(length, 1.0, 2.0)
    parity = np.eye(1)
    for _ in range(length):
        parity = np.kron(parity, SX)
    np.testing.assert_allclose(full_h @ parity - parity @ full_h, 0.0, atol=1e-12)


def test_xx_l10_frozen_values():
    spec = HamiltonianSpec(model="xx", length=10)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    assert eig.sector_dim == 252
    np.testing.assert_allclose(eig.eigenvalues[0], -6.026674183332271, rtol=1e-13)
    gap = level_gap(eig.eigenvalues, eig.eigenvalues[0])
    np.testing.assert_allclose(gap, 0.5692593530931411, rtol=1e-12)
    np.testing.assert_allclose(math.pi / gap,
                               math.pi / 0.5692593530931411, rtol=1e-12)


def test_tfim_l10_frozen_gaps():
    for field, gap in ((1.0, 1.2514757203218494), (3.0, 8.288460317553866)):
        spec = HamiltonianSpec(model="tfim", length=10, field=field)
        eig = eigendecompose(build_sector_hamiltonian(spec))
        assert eig.sector_dim == 512
        np.testing.assert_allclose(level_gap(eig.eigenvalues, eig.eigenvalues[0]), gap,
                                   rtol=1e-12)


def test_basis_index_initial_state():
    spec = HamiltonianSpec(model="xx", length=10)
    psi = make_initial_state(spec, "basis_index", basis_index=1)
    assert psi.vector.shape == (252,)
    np.testing.assert_allclose(np.linalg.norm(psi.vector), 1.0, rtol=1e-14)
    assert psi.vector[1] == 1.0


def test_e1_overlap_frozen_value():
    spec = HamiltonianSpec(model="xx", length=10)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    psi = make_initial_state(spec, "basis_index", basis_index=1)
    overlap2 = abs(eig.eigenvectors[:, 0] @ psi.vector) ** 2
    np.testing.assert_allclose(overlap2, 7.208033196304395e-08, rtol=1e-9)


def test_fusion_state_frozen_fidelity():
    spec = HamiltonianSpec(model="xx", length=10)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    psi = make_initial_state(spec, "fusion")
    np.testing.assert_allclose(np.linalg.norm(psi.vector), 1.0, rtol=1e-12)
    overlap2 = abs(eig.eigenvectors[:, 0] @ psi.vector) ** 2
    np.testing.assert_allclose(overlap2, 0.4369212145070647, rtol=1e-9)


def test_plus_projected_is_uniform():
    spec = HamiltonianSpec(model="tfim", length=8)
    psi = make_initial_state(spec, "plus_projected")
    dim = psi.vector.shape[0]
    np.testing.assert_allclose(psi.vector, 1.0 / math.sqrt(dim), rtol=1e-14)


def test_custom_state_normalized():
    raw = np.arange(6, dtype=float)
    psi = InitialState(vector=raw)
    np.testing.assert_allclose(np.linalg.norm(psi.vector), 1.0, rtol=1e-14)


def test_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec(model="xy", length=4)
    with pytest.raises(ValueError):
        HamiltonianSpec(model="xx", length=1)
    with pytest.raises(ValueError):
        HamiltonianSpec(model="xx", length=18)
    with pytest.raises(ValueError):
        HamiltonianSpec(model="xx", length=5, sector="zero_magnetization")
    with pytest.raises(ValueError):
        HamiltonianSpec(model="xx", length=4, sector="even_parity")
    with pytest.raises(ValueError):
        HamiltonianSpec(model="tfim", length=4, sector="zero_magnetization")
    with pytest.raises(ValueError):
        HamiltonianSpec(model="xx", length=4, sector="auto")


def test_two_level_full_rejection():
    # a single cycle of length pi/gap sends the excited weight to zero
    spec = HamiltonianSpec(model="xx", length=2)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    gap = eig.eigenvalues[1] - eig.eigenvalues[0]
    psi = InitialState(vector=eig.eigenvectors[:, 0] + eig.eigenvectors[:, 1])
    sched = TimeSchedule(times=np.array([math.pi / gap]))
    zeta, target = RodeoObjective(eig, psi, float(eig.eigenvalues[0])).weights(
        sched.times[:, None])
    np.testing.assert_allclose(target / (target + zeta), 1.0, atol=1e-12)
    np.testing.assert_allclose(zeta, 0.0, atol=1e-12)
    np.testing.assert_allclose(target + zeta, 0.5, atol=1e-12)


def test_objective_batch_matches_value():
    spec = HamiltonianSpec(model="xx", length=8)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    psi = make_initial_state(spec, "basis_index", basis_index=1)
    obj = RodeoObjective(eig, psi, float(eig.eigenvalues[0]))
    rng = np.random.default_rng(4)
    mat = rng.uniform(0.1, 12.0, size=(6, 5))
    batch = obj.batch(mat)
    singles = [obj.value(mat[:, j]) for j in range(5)]
    np.testing.assert_allclose(batch, singles, rtol=1e-12)


def test_fidelity_monotone_in_cycles():
    spec = HamiltonianSpec(model="xx", length=8)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    psi = make_initial_state(spec, "basis_index", basis_index=1)
    obj = RodeoObjective(eig, psi, float(eig.eigenvalues[0]))
    times: list = []
    prev = -1.0
    for t in (2.0, 3.0, 5.0, 8.0):
        times.append(t)
        fidelity = 1.0 - obj.value(np.array(times))
        assert fidelity >= prev - 1e-12
        prev = fidelity


def test_fusion_requires_xx_zero_magnetization():
    spec = HamiltonianSpec(model="tfim", length=6)
    with pytest.raises(ValueError):
        make_initial_state(spec, "fusion")


def test_a_chain_with_every_level_on_the_target_has_no_residual():
    # XX at zero coupling: every level of the L = 2 sector is 0
    spec = HamiltonianSpec(model="xx", length=2, coupling=0.0)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    obj = RodeoObjective(eig, make_initial_state(spec, "basis_index", basis_index=1), 0.0)
    assert (obj.levels, obj.levels_below_resolution, len(obj._target.deltas)) == (0, 0, 1)
    assert obj.weights(np.zeros((0, 1)))[1][0] == 1.0  # the target weight before any cycle
    np.testing.assert_array_equal(obj.batch(np.ones((4, 3))), [0.0] * 3)
    with pytest.raises(ValueError, match="no gap exists"):
        level_gap(eig.eigenvalues, 0.0)


# Every (model, sector, length) up to 1,024 states: L = 2..12 in the XX
# zero-magnetization sector, 2..11 in TFIM even parity, 2..10 in full.
CHAINS = [(model, sector, length) for model, sector, length in itertools.product(
    ("xx", "tfim"), ("zero_magnetization", "even_parity", "full"), range(2, 13))
    if (model, sector) not in {("xx", "even_parity"), ("tfim", "zero_magnetization")}
    and not (sector == "zero_magnetization" and length % 2)
    and len(sector_basis(HamiltonianSpec(model, length, sector=sector))) <= 1024]


def _every_level(eigenvalues, weights, e_target):
    """(offsets, weights) of every merged level, in and outside the target,
    with none dropped; a level of weight 0 has a nan offset."""
    with np.errstate(divide="ignore", invalid="ignore"):
        target, rest, _ = DiscreteSpectrum(eigenvalues, weights).levels(e_target, -1.0)
    return np.r_[target[0], rest[0]], np.exp(np.r_[target[1], rest[1]])


def _gaps(eigenvalues, e_target):
    """Distance from each merged level to the nearest other, in the order
    of _every_level."""
    at, _ = _every_level(eigenvalues, np.full(len(eigenvalues), 1 / len(eigenvalues)),
                         e_target)
    spread = np.sort(at)
    sides = np.diff(spread)
    return np.minimum(np.r_[np.inf, sides], np.r_[sides, np.inf])[np.searchsorted(spread, at)]


def _random_state(n, seed, density):
    """A state with a random normal entry on each basis vector with
    probability ``density``, and on basis vector 0 at least."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) * (rng.random(n) < density)
    v[0] += 1.0
    return InitialState(v)


def _objective_counts(obj):
    """(levels kept in and outside the target, levels dropped)."""
    return len(obj._target.deltas) + obj.levels, obj.levels_below_resolution


def _block_eigensystem(matrix, symmetries) -> EigenSystem:
    """The block solve in the whole basis, the reference of state_spectrum's
    block coordinates: each of _character_blocks' blocks goes to eigh, and
    entry g r of block vector c is chi(g) c[r] / sqrt(|orbit of r|)."""
    images, stabilizer, blocks = _character_blocks(matrix, symmetries)
    order, n = len(images), len(matrix)
    solved = [(chi, allowed, *np.linalg.eigh(block)) for chi, allowed, block in blocks]
    energies = np.concatenate([vals for _, _, vals, _ in solved])
    ascending = np.argsort(energies, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[ascending] = np.arange(n)
    vectors = np.zeros((n, n))
    start = 0
    for chi, allowed, vals, vecs in solved:
        cols = rank[start:start + len(vals)]
        start += len(vals)
        amplitude = np.sqrt(stabilizer[allowed] / order)
        for g in range(order):
            vectors[np.ix_(images[g, allowed], cols)] = (chi[g] * amplitude)[:, None] * vecs
    return EigenSystem(eigenvalues=energies[ascending], eigenvectors=vectors, sector_dim=n)


def _assert_weights_agree(ref, energies, weights, psi, e0, scale, d, offsets):
    """(objective of ref's vectors, objective from_levels) after checking
    the weights of ``psi`` on (energies, weights)'s merged levels against
    those on ref's: the same levels, offsets within ``offsets`` of the
    scale where both weights are nonzero, each weight w within
    d (2 sqrt(w) + d), and the same levels kept and dropped unless a
    weight's bound reaches the floor, kept weights agreeing in log."""
    n = len(psi.vector)
    floor = (n * EPS) ** 2
    (da, wa), (db, wb) = (_every_level(e, w, e0) for e, w in (
        (ref.eigenvalues, (ref.eigenvectors.T @ psi.vector) ** 2), (energies, weights)))
    assert len(da) == len(db)
    both = (wa > 0) & (wb > 0)
    assert np.all(np.abs(da - db)[both] <= offsets * scale)
    weighty = np.maximum(wa, wb)
    bound = d * (2 * np.sqrt(weighty) + d)
    assert np.all(np.abs(wa - wb) <= bound)
    full, touched = (RodeoObjective(ref, psi, e0),
                     RodeoObjective.from_levels(energies, weights, n, e0))
    kept_a, kept_b = wa > floor * wa.sum(), wb > floor * wb.sum()
    assert _objective_counts(full) == (kept_a.sum(), (~kept_a).sum())
    assert _objective_counts(touched) == (kept_b.sum(), (~kept_b).sum())
    clear = np.abs(weighty - floor) > bound
    assert np.array_equal(kept_a[clear], kept_b[clear])
    kept = kept_a & kept_b
    low = np.minimum(wa, wb)[kept]
    assert np.all(np.abs(np.log(wa[kept]) - np.log(wb[kept])) <= np.log1p(bound[kept] / low))
    return full, touched


def _assert_weights_match_dense(dense, energies, weights, psi, e0, scale):
    """_assert_weights_agree against the dense solve. A level's weight is
    the squared projection of the state on its eigenspace; the dense
    solve mixes levels of different symmetry closer than its rounding
    allows, which moves a weight w by up to d (2 sqrt(w) + d),
    d = n eps scale / gap, with gap the distance to the nearest other
    level (at most the scale)."""
    gaps = _gaps(dense.eigenvalues, e0)
    d = len(psi.vector) * EPS * scale / np.minimum(gaps, scale)
    return _assert_weights_agree(dense, energies, weights, psi, e0, scale, d, 3e-14)


# Tolerances measured first, over every chain above at coupling 1, 0.37,
# -1.7 and 2.5, fields 0, 0.5, 1 and 3, and basis states 0, 1, n/3, n-1,
# plus and fusion: eigenvalues within 6.4e-15 of the spectral scale,
# columns orthonormal to 4.9e-15, residuals |Hv - Ev| within 1.2e-15 of
# the scale, level offsets within 1.1e-14 of it, and weights within 0.71
# of the dense solve's mixing bound (_assert_weights_match_dense).
@settings(max_examples=40, deadline=None)
@given(chain=st.sampled_from(CHAINS), coupling=st.sampled_from((1.0, -1.7, 0.37, 2.5)),
       field=st.sampled_from((0.0, 0.5, 1.0, 3.0)), pick=st.floats(0.0, 1.0))
@example(chain=("tfim", "full", 10), coupling=2.5, field=0.5, pick=1.0)
@example(chain=("tfim", "even_parity", 11), coupling=0.37, field=3.0, pick=0.5)
@example(chain=("xx", "zero_magnetization", 12), coupling=-1.7, field=0.0, pick=0.3)
@example(chain=("xx", "full", 9), coupling=2.5, field=1.0, pick=0.0)
def test_the_block_solve_matches_the_dense_oracle(chain, coupling, field, pick):
    model, sector, length = chain
    spec = HamiltonianSpec(model, length, coupling, field, sector)
    m, maps = build_sector_hamiltonian(spec), sector_symmetries(spec)
    dense, blocks = eigendecompose(m), _block_eigensystem(m, maps)
    n = len(m)
    scale = max(1.0, float(np.abs(dense.eigenvalues).max()))
    np.testing.assert_array_equal(sector_energies(m, maps), blocks.eigenvalues)
    assert blocks.sector_dim == n and blocks.eigenvectors.shape == (n, n)
    assert np.all(np.diff(blocks.eigenvalues) >= 0)
    assert np.abs(blocks.eigenvalues - dense.eigenvalues).max() <= 3e-14 * scale
    v = blocks.eigenvectors
    assert np.abs(v.T @ v - np.eye(n)).max() <= 2e-14
    assert np.abs(m @ v - v * blocks.eigenvalues).max() <= 1e-14 * scale

    states = [make_initial_state(spec, "basis_index", basis_index=round(pick * (n - 1)))]
    if model == "tfim":
        states.append(make_initial_state(spec, "plus_projected"))
    if sector == "zero_magnetization":
        states.append(make_initial_state(spec, "fusion"))
    e0 = float(dense.eigenvalues[0])
    for psi in states:
        _assert_weights_match_dense(dense, blocks.eigenvalues,
                                    (blocks.eigenvectors.T @ psi.vector) ** 2, psi, e0, scale)


# Tolerances measured first against the block solve with the same maps,
# over every chain above at coupling 1, 0.37, -1.7 and 2.5, fields 0,
# 0.5, 1 and 3, basis states 0, 1, n/3 and n-1, plus, fusion and 3 random
# states (and 20 more random states per chain at two couplings): energies
# within 8.4e-15 of the spectral scale (a touched block's are
# sector_energies' bits, eigvalsh's differ from eigh's), merged offsets
# within 1.6e-15 of it where both weights are nonzero, and level counts
# equal in every case. A touched block's weights come from the same block
# vectors, summed over its representatives instead of the whole basis:
# they moved a weight w by at most d (2 sqrt(w) + d) with d = 5.5 eps.
# Against the dense solve the bounds of the test above hold.
@settings(max_examples=40, deadline=None)
@given(chain=st.sampled_from(CHAINS), coupling=st.sampled_from((1.0, -1.7, 0.37, 2.5)),
       field=st.sampled_from((0.0, 0.5, 1.0, 3.0)), pick=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), density=st.sampled_from((0.05, 0.5, 1.0)))
@example(chain=("tfim", "full", 10), coupling=2.5, field=0.5, pick=1.0, seed=0, density=1.0)
@example(chain=("tfim", "even_parity", 7), coupling=0.37, field=0.5, pick=0.5, seed=1,
         density=0.05)
@example(chain=("xx", "zero_magnetization", 12), coupling=-1.7, field=0.0, pick=0.3, seed=2,
         density=0.5)
@example(chain=("xx", "full", 10), coupling=1.0, field=0.0, pick=0.0, seed=3, density=0.05)
def test_the_touched_block_solve_matches_eigendecompose(chain, coupling, field, pick, seed,
                                                         density):
    model, sector, length = chain
    spec = HamiltonianSpec(model, length, coupling, field, sector)
    m, maps = build_sector_hamiltonian(spec), sector_symmetries(spec)
    dense, blocks = eigendecompose(m), _block_eigensystem(m, maps)
    n = len(m)
    scale = max(1.0, float(np.abs(blocks.eigenvalues).max()))
    e0 = float(blocks.eigenvalues[0])
    states = [make_initial_state(spec, "basis_index", basis_index=round(pick * (n - 1))),
              _random_state(n, seed, density)]
    if model == "tfim":
        states.append(make_initial_state(spec, "plus_projected"))
    if sector == "zero_magnetization":
        states.append(make_initial_state(spec, "fusion"))
    for psi in states:
        energies, weights = state_spectrum(m, maps, psi)
        assert np.all(np.diff(energies) >= 0)
        assert np.abs(energies - blocks.eigenvalues).max() <= 3e-14 * scale
        assert abs(weights.sum() - 1.0) <= 1e-13
        _assert_weights_agree(blocks, energies, weights, psi, e0, scale, 10 * EPS, 1e-14)
        _assert_weights_match_dense(dense, energies, weights, psi, e0, scale)


@pytest.mark.parametrize("spec", [
    HamiltonianSpec("tfim", 10, field=1.0),
    HamiltonianSpec("xx", 10),
    HamiltonianSpec("tfim", 10, 2.5, 0.5, "full"),
    HamiltonianSpec("xx", 9, sector="full")], ids=("tfim-even", "xx-zero", "tfim-full", "xx-full"))
def test_a_state_in_every_character_reproduces_the_block_solve(spec, monkeypatch):
    m, maps = build_sector_hamiltonian(spec), sector_symmetries(spec)
    blocks = _block_eigensystem(m, maps)
    psi = _random_state(len(m), 7, 1.0)
    values_only = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: values_only.append(len(a)) or eigvalsh(a))
    energies, weights = state_spectrum(m, maps, psi)
    assert values_only == []
    np.testing.assert_array_equal(energies, blocks.eigenvalues)  # the same eigh calls
    e0, scale = float(energies[0]), max(1.0, float(np.abs(energies).max()))
    full, touched = (RodeoObjective(blocks, psi, e0),
                     RodeoObjective.from_levels(energies, weights, len(m), e0))
    assert _objective_counts(touched) == _objective_counts(full)
    for a, b in ((full._rest, touched._rest), (full._target, touched._target)):
        np.testing.assert_allclose(b.deltas, a.deltas, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(b.log_weights, a.log_weights, rtol=0, atol=1e-12)
    _assert_weights_match_dense(eigendecompose(m), energies, weights, psi, e0, scale)


def test_a_state_outside_the_targets_character_has_no_target_weight():
    # TFIM L = 10: the ground state is even under the site reflection; a
    # basis state minus its mirror image is odd
    spec = HamiltonianSpec("tfim", 10, field=1.0)
    m, (reflect, *_) = build_sector_hamiltonian(spec), sector_symmetries(spec)
    v = np.zeros(len(m))
    v[1], v[reflect[1]] = 1.0, -1.0
    energies, weights = state_spectrum(m, sector_symmetries(spec), InitialState(v))
    ground = eigendecompose(m).eigenvalues[0]
    assert abs(energies[0] - ground) <= 1e-14 * abs(ground) and weights[0] == 0.0
    obj = RodeoObjective.from_levels(energies, weights, len(m), float(energies[0]))
    assert len(obj._target.deltas) == 0 and obj.levels_below_resolution >= 1
    zeta, target = obj.weights(np.ones((3, 2)))
    np.testing.assert_array_equal(target, [0.0, 0.0])
    assert np.all(zeta > 0)
    np.testing.assert_array_equal(obj.batch(np.ones((3, 2))), [1.0, 1.0])


def test_the_tfim_chain_backend_stays_under_4_mb():
    # measured: 2.9 MB, of which 2.1 MB is the 512 x 512 sector matrix;
    # eigendecompose's (n, n) eigenvector array took the peak to 5.8 MB
    import tracemalloc

    from rodeo_sched.cli import _hamiltonian_backend, build_parser

    args = build_parser()[1]["curve"].parse_args(["--model", "tfim", "--length", "10"])
    tracemalloc.start()
    try:
        objective, _, extras = _hamiltonian_backend(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert extras["sector_dim"] == 512 and objective.levels == 30
    assert peak <= 4e6


def test_the_tfim_spectrum_command_stays_under_4_mb(capsys):
    # measured: 2.7 MB, of which 2.1 MB is the 512 x 512 sector matrix;
    # a dense (n, n) eigenvector array took the peak to 5.1 MB
    import tracemalloc

    from rodeo_sched.cli import build_parser

    build_parser()
    tracemalloc.start()
    try:
        code = main(["spectrum", "--model", "tfim", "--length", "10"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["result"]["sector_dim"] == 512
    assert peak <= 4e6


# Levels zero by symmetry: a dense eigh mixes nearly degenerate levels of
# different symmetry by about n eps scale / gap, so some pass the
# (n eps)**2 floor (TFIM full L = 10: two extra levels of 4.7e-23 to
# 1.7e-17; even parity L = 7: one of 2.9e-28 against a floor of
# 2.0e-28). The chain commands solve by blocks and keep none of them.
@pytest.mark.parametrize("spec, flags, dense, solved", [
    (HamiltonianSpec("tfim", 10, 2.5, 0.5, "full"), ["--sector", "full"], (33, 250), (31, 252)),
    (HamiltonianSpec("tfim", 7, 0.37, 0.5), ["--basis-index", "21"], (20, 6), (19, 7)),
], ids=("tfim-full-plus", "tfim-even-basis-21"))
def test_levels_zero_by_symmetry_stay_dropped_on_the_cli_path(spec, flags, dense, solved,
                                                               capsys, tmp_path):
    m = build_sector_hamiltonian(spec)
    psi = (make_initial_state(spec, "basis_index", basis_index=21) if "--basis-index" in flags
           else make_initial_state(spec, "plus_projected"))
    eig = eigendecompose(m)
    obj = RodeoObjective(eig, psi, float(eig.eigenvalues[0]))
    assert (obj.levels, obj.levels_below_resolution) == dense
    out = tmp_path / "c.json"
    argv = ["curve", "--model", "tfim", "--length", str(spec.length), "--coupling",
            str(spec.coupling), "--field", str(spec.field), "--n-samples", "10",
            "--t-points", "2", "--skip-rra", "--format", "json", "--out", str(out)] + flags
    assert main(argv) == 0
    diagnostics = json.loads(out.read_text())["manifest"]["diagnostics"]
    assert (diagnostics["levels"], diagnostics["levels_below_resolution"]) == solved


@pytest.mark.parametrize("spec, kind, kept, dropped", [
    (HamiltonianSpec("tfim", 10, field=1.0), "plus_projected", 30, 90),
    (HamiltonianSpec("xx", 10), "basis_index", 121, 0)], ids=("tfim-plus", "xx-e1"))
def test_the_benchmark_chains_keep_their_levels_under_the_block_solve(spec, kind, kept, dropped):
    # measured: offsets within 7.1e-15, log weights within 1.3e-12
    m = build_sector_hamiltonian(spec)
    psi = make_initial_state(spec, kind, basis_index=1 if kind == "basis_index" else None)
    e0 = float(np.linalg.eigvalsh(m)[0])
    dense, blocks = (RodeoObjective(eig, psi, e0) for eig in (
        eigendecompose(m), _block_eigensystem(m, sector_symmetries(spec))))
    # the touched-block solve gives the unsolved blocks' energies weight 0
    energies, weights = state_spectrum(m, sector_symmetries(spec), psi)
    touched = RodeoObjective.from_levels(energies, weights, len(m), e0)
    for obj in (dense, blocks, touched):
        assert (obj.levels, obj.levels_below_resolution) == (kept, dropped)
    for other in (blocks, touched):
        for a, b in ((dense._rest, other._rest), (dense._target, other._target)):
            np.testing.assert_allclose(b.deltas, a.deltas, rtol=0, atol=5e-14)
            np.testing.assert_allclose(b.log_weights, a.log_weights, rtol=0, atol=5e-12)


@pytest.mark.parametrize("spec, blocks", [
    (HamiltonianSpec("tfim", 10, field=1.0), [152, 120, 120, 120]),
    (HamiltonianSpec("xx", 10), [71, 55, 55, 71]),
    (HamiltonianSpec("tfim", 10, field=1.0, sector="full"), [152, 120, 120, 120, 136, 120, 120, 136]),
    (HamiltonianSpec("tfim", 2, field=1.0), [2]),  # both maps are the identity
], ids=("tfim-even", "xx-zero", "tfim-full", "tfim-2"))
def test_each_symmetry_block_goes_to_eigh_alone(spec, blocks, monkeypatch):
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
    energies = sector_energies(build_sector_hamiltonian(spec), sector_symmetries(spec))
    assert sizes == blocks and len(energies) == sum(blocks)


def test_curve_solves_the_tfim_chain_block_by_block(monkeypatch, tmp_path):
    # the plus state lies in the trivial character's block of 152 states;
    # the other three blocks get eigenvalues only
    sizes = {"eigh": [], "eigvalsh": []}
    for name, solve in (("eigh", np.linalg.eigh), ("eigvalsh", np.linalg.eigvalsh)):
        monkeypatch.setattr(np.linalg, name,
                            lambda a, name=name, solve=solve: sizes[name].append(len(a))
                            or solve(a))
    argv = ["curve", "--model", "tfim", "--length", "10", "--n-samples", "10",
            "--t-points", "2", "--skip-rra", "--out", str(tmp_path / "c.json")]
    assert main(argv) == 0
    assert sizes == {"eigh": [152], "eigvalsh": [120, 120, 120]}


def test_symmetries_that_do_not_hold_are_refused():
    spec = HamiltonianSpec("tfim", 6, field=0.5)
    m, (reflect, shift) = build_sector_hamiltonian(spec), sector_symmetries(spec)
    n = len(m)
    swap = np.arange(n)
    swap[[1, 2]] = [2, 1]  # an involution that breaks the ring's bonds
    cycle = np.roll(np.arange(n), 1)  # a permutation, not an involution
    for maps, message in (([swap], "does not commute with the matrix"),
                          ([cycle], "involution"),
                          ([reflect[:-1]], "involution"),
                          ([np.where(reflect == 0, n, reflect)], "involution"),
                          ([reflect.astype(float)], "involution")):
        with pytest.raises(ValueError, match=message):
            sector_energies(m, maps)
    # an energy shift on one state that the reflection moves elsewhere
    skewed = m.copy()
    skewed[1, 1] += 1.0
    with pytest.raises(ValueError, match="does not commute with the matrix"):
        sector_energies(skewed, [reflect])
    assert len(sector_energies(m, [reflect, shift, reflect])) == n


def test_symmetries_that_do_not_commute_with_each_other_are_refused():
    # the swaps (0 1) and (1 2) are involutions that commute with the
    # identity matrix but not with each other
    with pytest.raises(ValueError, match="do not commute with each other"):
        sector_energies(np.eye(3), [np.array([1, 0, 2]), np.array([0, 2, 1])])
