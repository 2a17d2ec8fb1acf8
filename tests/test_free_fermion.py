"""The chain solves against the benchmark chains' exact free-fermion levels.

free_fermion.py builds each level from the single-particle modes, with
no eigensolver; here the levels state_spectrum and RodeoObjective score
for a basis state of the open XX chain must match them, and so must the
infidelities RodeoObjective.batch gives on random schedules. The TFIM
ring's even-parity levels must match sector_energies.
"""

import numpy as np
import pytest

from free_fermion import merged_levels, tfim_even_energies, xx_eigenstates
from rodeo_sched import (HamiltonianSpec, RodeoObjective, build_sector_hamiltonian,
                         geometric_times, make_initial_state, sector_basis, sector_energies,
                         sector_symmetries, state_spectrum)
from rodeo_sched.schedules import half_normal_draws
from rodeo_sched.spectral import log_surviving

EPS = np.finfo(float).eps


def _xx_case(length, pick) -> tuple:
    """(objective, basis state's up sites) of the open XX chain's basis
    state 1 ("e1") or n/2 ("middle"), scored at its lowest level."""
    spec = HamiltonianSpec("xx", length)
    basis = sector_basis(spec)
    index = 1 if pick == "e1" else len(basis) // 2
    m = build_sector_hamiltonian(spec)
    energies, weights = state_spectrum(m, sector_symmetries(spec),
                                       make_initial_state(spec, "basis_index", basis_index=index))
    obj = RodeoObjective.from_levels(energies, weights, len(basis), float(energies[0]))
    return obj, energies, [s for s in range(length) if basis[index] >> s & 1]


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
    obj, energies, up_sites = _xx_case(length, pick)
    exact_e, exact_w = xx_eigenstates(length, 1.0, up_sites)
    scale = max(1.0, float(np.abs(exact_e).max()))
    assert np.abs(np.sort(exact_e) - energies).max() <= 2e-15 * scale
    assert abs(exact_w.sum() - 1.0) <= 4e-15

    (target_d, target_w), (rest_d, rest_w) = merged_levels(exact_e, exact_w, exact_e.min())
    zero = rest_w <= 1e-30
    assert np.all(rest_w[~zero] >= 1e-9) and np.all(target_w >= 1e-9)
    assert (obj.levels, obj.levels_below_resolution) == ((~zero).sum(), zero.sum())
    for level_set, (exact_d, exact_w) in ((obj._rest, (rest_d[~zero], rest_w[~zero])),
                                          (obj._target, (target_d, target_w))):
        assert np.abs(level_set.deltas - exact_d).max() <= 3e-15 * scale
        assert np.abs(level_set.log_weights - np.log(exact_w)).max() <= 5e-13


# Measured first over 360,000 columns (600 seeds of this draw, 50 columns
# of each kind, every case below): relative difference median 1.3e-14,
# 99.9th percentile 3.8e-12, largest 7.9e-10. The largest come from a
# cycle whose phase lies next to a zero of cos, where the factor's
# relative change is 2 |tan| times the phase's, and the offsets differ by
# up to 1.2e-15 of the scale; the smallest value met was 6.7e-26. This
# test's own draws reach 3.8e-11.
@pytest.mark.parametrize("length", (6, 8, 10))
@pytest.mark.parametrize("pick", ("e1", "middle"))
def test_the_xx_objective_batch_matches_the_free_fermion_levels(length, pick):
    obj, _, up_sites = _xx_case(length, pick)
    exact_e, exact_w = xx_eigenstates(length, 1.0, up_sites)
    (target_d, target_w), (rest_d, rest_w) = merged_levels(exact_e, exact_w, exact_e.min())
    keep = rest_w > 1e-30  # the vanishing determinants weigh exactly 0
    t0 = np.pi / rest_d[0]
    rng = np.random.default_rng(length + (pick == "e1"))
    for seed in range(10):
        n, cols = int(rng.integers(1, 60)), 50
        geometric = geometric_times(rng.uniform(1.0, 2.0, cols), n,
                                    rng.uniform(0.0, 20.0, cols) * t0)
        # half-normal draws of width (T / n) sqrt(pi / 2): a mean total T
        widths = rng.uniform(0.0, 20.0, cols) * t0 / n * np.sqrt(np.pi / 2.0)
        random = half_normal_draws(n, cols, seed) * widths
        for tm in (geometric, random):
            log_zeta = log_surviving(rest_d[keep], np.log(rest_w[keep]), tm)
            log_target = log_surviving(target_d, np.log(target_w), tm)
            exact = np.exp(log_zeta - np.logaddexp(log_zeta, log_target))
            assert exact.min() > 1e-300
            np.testing.assert_allclose(obj.batch(tm), exact, rtol=2e-9, atol=0)


# Measured first at L = 6, 8, 10 and 12 over these couplings and fields:
# sorted energies within 1.4e-15 of the spectral scale at L <= 10 (2.8e-14
# absolute; 2.6e-15 of the scale at L = 12), with as many levels as the
# sector has states.
@pytest.mark.parametrize("length", (6, 8, 10))
@pytest.mark.parametrize("coupling, field", [(1.0, 0.5), (1.0, 1.0), (1.0, 3.0), (2.5, 0.5),
                                             (-1.7, 0.37)])
def test_the_tfim_sector_energies_are_the_free_fermion_levels(length, coupling, field):
    spec = HamiltonianSpec("tfim", length, coupling, field)
    energies = sector_energies(build_sector_hamiltonian(spec), sector_symmetries(spec))
    exact = tfim_even_energies(length, coupling, field)
    scale = max(1.0, float(np.abs(exact).max()))
    assert len(exact) == len(energies) == 2 ** (length - 1)
    assert np.abs(exact - energies).max() <= 3e-15 * scale
