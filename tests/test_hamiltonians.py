"""Sector exact diagonalization and the filtering objective on its states.

Cross-checks build the full 2**L Hamiltonian from Kronecker products
in-test and compare sector eigenvalues against it, so the packed
sector construction is validated independently.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rodeo_sched import (DiscreteSpectrum, HamiltonianSpec, InitialState, RodeoObjective,
                         TimeSchedule, build_sector_hamiltonian, eigendecompose,
                         make_initial_state, minimum_gap, sector_basis, sector_symmetries)
from rodeo_sched.cli import main

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
    np.testing.assert_allclose(minimum_gap(eig), 0.5692593530931411, rtol=1e-12)
    np.testing.assert_allclose(math.pi / minimum_gap(eig),
                               math.pi / 0.5692593530931411, rtol=1e-12)


def test_tfim_l10_frozen_gaps():
    for field, gap in ((1.0, 1.2514757203218494), (3.0, 8.288460317553866)):
        spec = HamiltonianSpec(model="tfim", length=10, field=field)
        eig = eigendecompose(build_sector_hamiltonian(spec))
        assert eig.sector_dim == 512
        np.testing.assert_allclose(minimum_gap(eig), gap, rtol=1e-12)


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
    assert (obj.levels, obj.levels_below_resolution, len(obj._target[0])) == (0, 0, 1)
    assert obj.weights(np.zeros((0, 1)))[1][0] == 1.0  # the target weight before any cycle
    np.testing.assert_array_equal(obj.batch(np.ones((4, 3))), [0.0] * 3)
    with pytest.raises(ValueError, match="no gap exists"):
        minimum_gap(eig)


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


# Tolerances measured first, over every chain above at coupling 1, 0.37,
# -1.7 and 2.5, fields 0, 0.5, 1 and 3, and basis states 0, 1, n/3, n-1,
# plus and fusion: eigenvalues within 6.4e-15 of the spectral scale,
# columns orthonormal to 4.9e-15, residuals |Hv - Ev| within 1.2e-15 of
# the scale, level offsets within 1.1e-14 of it. A level's weight is the
# squared projection of the state on its eigenspace; the dense solve
# mixes levels of different symmetry closer than its rounding allows,
# which moves a weight w by up to d (2 sqrt(w) + d), d = n eps scale / gap,
# with gap the distance to the nearest other level (at most the scale).
# The largest move measured was 0.71 of that bound.
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
    m = build_sector_hamiltonian(spec)
    dense, blocks = eigendecompose(m), eigendecompose(m, sector_symmetries(spec))
    n = len(m)
    scale = max(1.0, float(np.abs(dense.eigenvalues).max()))
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
    floor = (n * EPS) ** 2
    d = n * EPS * scale / np.minimum(_gaps(blocks.eigenvalues, e0), scale)
    for psi in states:
        (da, wa), (db, wb) = (_every_level(e.eigenvalues, (e.eigenvectors.T @ psi.vector) ** 2, e0)
                              for e in (dense, blocks))
        assert len(da) == len(db) == len(d)
        both = (wa > 0) & (wb > 0)
        assert np.all(np.abs(da - db)[both] <= 3e-14 * scale)
        weighty = np.maximum(wa, wb)
        bound = d * (2 * np.sqrt(weighty) + d)
        assert np.all(np.abs(wa - wb) <= bound)
        # RodeoObjective: the same levels, kept or dropped alike unless a
        # weight's bound reaches the floor; kept weights agree in log.
        dense_obj, block_obj = (RodeoObjective(e, psi, e0) for e in (dense, blocks))
        totals = [(len(o._target[0]) + o.levels, o.levels_below_resolution)
                  for o in (dense_obj, block_obj)]
        kept_a, kept_b = wa > floor * wa.sum(), wb > floor * wb.sum()
        assert totals == [(kept_a.sum(), (~kept_a).sum()), (kept_b.sum(), (~kept_b).sum())]
        clear = np.abs(weighty - floor) > bound
        assert np.array_equal(kept_a[clear], kept_b[clear])
        kept = kept_a & kept_b
        low = np.minimum(wa, wb)[kept]
        assert np.all(np.abs(np.log(wa[kept]) - np.log(wb[kept])) <= np.log1p(bound[kept] / low))


@pytest.mark.parametrize("spec, kind, kept, dropped", [
    (HamiltonianSpec("tfim", 10, field=1.0), "plus_projected", 30, 90),
    (HamiltonianSpec("xx", 10), "basis_index", 121, 0)], ids=("tfim-plus", "xx-e1"))
def test_the_benchmark_chains_keep_their_levels_under_the_block_solve(spec, kind, kept, dropped):
    # measured: offsets within 7.1e-15, log weights within 1.3e-12
    m = build_sector_hamiltonian(spec)
    psi = make_initial_state(spec, kind, basis_index=1 if kind == "basis_index" else None)
    e0 = float(np.linalg.eigvalsh(m)[0])
    dense, blocks = (RodeoObjective(eigendecompose(m, maps), psi, e0)
                     for maps in ((), sector_symmetries(spec)))
    for obj in (dense, blocks):
        assert (obj.levels, obj.levels_below_resolution) == (kept, dropped)
    for (da, la), (db, lb) in ((dense._rest, blocks._rest), (dense._target, blocks._target)):
        np.testing.assert_allclose(db, da, rtol=0, atol=5e-14)
        np.testing.assert_allclose(lb, la, rtol=0, atol=5e-12)


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
    eig = eigendecompose(build_sector_hamiltonian(spec), sector_symmetries(spec))
    assert sizes == blocks and eig.sector_dim == sum(blocks)


def test_curve_solves_the_tfim_chain_block_by_block(monkeypatch, tmp_path):
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
    argv = ["curve", "--model", "tfim", "--length", "10", "--n-samples", "10",
            "--t-points", "2", "--skip-rra", "--out", str(tmp_path / "c.json")]
    assert main(argv) == 0
    assert 512 not in sizes and sum(sizes) == 512


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
            eigendecompose(m, maps)
    # an energy shift on one state that the reflection moves elsewhere
    skewed = m.copy()
    skewed[1, 1] += 1.0
    with pytest.raises(ValueError, match="does not commute with the matrix"):
        eigendecompose(skewed, [reflect])
    assert eigendecompose(m, [reflect, shift, reflect]).sector_dim == n


def test_symmetries_that_do_not_commute_with_each_other_are_refused():
    # the swaps (0 1) and (1 2) are involutions that commute with the
    # identity matrix but not with each other
    with pytest.raises(ValueError, match="do not commute with each other"):
        eigendecompose(np.eye(3), [np.array([1, 0, 2]), np.array([0, 2, 1])])
