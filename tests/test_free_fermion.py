"""The chain objective against the open XX chain's exact free-fermion levels.

free_fermion.py builds each level from the single-particle modes, with
no eigensolver; here the levels state_spectrum and RodeoObjective score
for a basis state must match them.
"""

import numpy as np
import pytest

from free_fermion import merged_levels, xx_eigenstates
from rodeo_sched import (HamiltonianSpec, RodeoObjective, build_sector_hamiltonian,
                         make_initial_state, sector_basis, sector_symmetries, state_spectrum)

EPS = np.finfo(float).eps


# Tolerances measured first, at L = 6, 8, 10 and 12 and basis states 0,
# 1, n/2 and n-2: sorted energies within 8.4e-16 of the spectral scale at
# L <= 10 (2.9e-15 at L = 12), merged offsets within 1.2e-15 of it, log
# weights within 1.6e-13 at L <= 10 (2.3e-11 at L = 12, on weights down
# to 1.2e-11), total weight within 1.4e-15 of 1. The levels the objective
# drops are those whose determinants vanish: 2.1e-32 and below, against
# kept weights of 2e-9 and up.
@pytest.mark.parametrize("length", (6, 8, 10))
@pytest.mark.parametrize("pick", ("e1", "middle"))
def test_the_xx_objective_scores_the_free_fermion_levels(length, pick):
    spec = HamiltonianSpec("xx", length)
    basis = sector_basis(spec)
    index = 1 if pick == "e1" else len(basis) // 2
    m = build_sector_hamiltonian(spec)
    energies, weights = state_spectrum(m, sector_symmetries(spec),
                                       make_initial_state(spec, "basis_index", basis_index=index))
    obj = RodeoObjective.from_levels(energies, weights, len(basis), float(energies[0]))

    up_sites = [s for s in range(length) if basis[index] >> s & 1]
    exact_e, exact_w = xx_eigenstates(length, 1.0, up_sites)
    scale = max(1.0, float(np.abs(exact_e).max()))
    assert np.abs(np.sort(exact_e) - energies).max() <= 2e-15 * scale
    assert abs(exact_w.sum() - 1.0) <= 4e-15

    (target_d, target_w), (rest_d, rest_w) = merged_levels(exact_e, exact_w, exact_e.min())
    zero = rest_w <= 1e-30
    assert np.all(rest_w[~zero] >= 1e-9) and np.all(target_w >= 1e-9)
    assert (obj.levels, obj.levels_below_resolution) == ((~zero).sum(), zero.sum())
    for (d, log_w), (exact_d, exact_w) in ((obj._rest, (rest_d[~zero], rest_w[~zero])),
                                           (obj._target, (target_d, target_w))):
        assert np.abs(d - exact_d).max() <= 3e-15 * scale
        assert np.abs(log_w - np.log(exact_w)).max() <= 5e-13
