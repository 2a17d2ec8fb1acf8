"""Sector exact diagonalization and the filtering objective on its states.

Cross-checks build the full 2**L Hamiltonian from Kronecker products
in-test and compare sector eigenvalues against it, so the packed
sector construction is validated independently.
"""

import math

import numpy as np
import pytest

from rodeo_sched import (HamiltonianSpec, RodeoObjective, TimeSchedule,
                         build_sector_hamiltonian, eigendecompose,
                         make_initial_state, minimum_gap, sector_basis)

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
    spec = HamiltonianSpec(model="xx", length=4)
    raw = np.arange(6, dtype=float)
    psi = make_initial_state(spec, "custom", vector=raw)
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
        HamiltonianSpec(model="xx", length=4, boundary="periodic")


def test_two_level_full_rejection():
    # a single cycle of length pi/gap sends the excited weight to zero
    spec = HamiltonianSpec(model="xx", length=2)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    gap = eig.eigenvalues[1] - eig.eigenvalues[0]
    psi = make_initial_state(spec, "custom",
                             vector=(eig.eigenvectors[:, 0] + eig.eigenvectors[:, 1]))
    sched = TimeSchedule(times=np.array([math.pi / gap]))
    res = RodeoObjective(eig, psi, float(eig.eigenvalues[0])).result(sched)
    np.testing.assert_allclose(res.fidelity, 1.0, atol=1e-12)
    np.testing.assert_allclose(res.zeta, 0.0, atol=1e-12)
    np.testing.assert_allclose(res.success_probability, 0.5, atol=1e-12)


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
        res = obj.result(TimeSchedule(times=np.array(times)))
        assert res.fidelity >= prev - 1e-12
        prev = res.fidelity


def test_fusion_requires_xx_zero_magnetization():
    spec = HamiltonianSpec(model="tfim", length=6)
    with pytest.raises(ValueError):
        make_initial_state(spec, "fusion")
