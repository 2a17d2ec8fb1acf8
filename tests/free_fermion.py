"""Exact levels of the benchmark chains, from their free-fermion modes.

The open XX chain: the Jordan-Wigner transformation maps
J (s+_j s-_{j+1} + s-_j s+_{j+1}) on an open chain onto free fermions
hopping with amplitude J. The open chain's single-particle modes are

    phi_k(j) = sqrt(2 / (L + 1)) sin(pi k j / (L + 1)),  j, k = 1 .. L,

with energies 2 J cos(pi k / (L + 1)). A many-body eigenstate with n up
spins occupies n modes; its energy is the sum of theirs, and its
amplitude on the basis state with up spins at sites s_1 < ... < s_n is
det[phi_k(s_i)] (a nearest-neighbour hop on an open chain passes no
other fermion, so the transformation adds no sign). The weight of that
basis state on the eigenstate is the determinant squared.

The periodic transverse-field Ising ring, -J sum z_j z_{j+1} - h sum x_j,
in the even-parity sector of the global spin flip: the Jordan-Wigner
transformation gives fermions with antiperiodic boundaries there, at
momenta k = pi (2m + 1) / L, m = 0 .. L - 1. A Bogoliubov rotation at
each k leaves modes of energy eps_k = 2 sqrt(J**2 + h**2 - 2 J h cos k),
and a level is sum_k eps_k (n_k - 1/2) over the occupations n_k whose
count is even (the vacuum is even, and parity is the occupation count's).

Nothing here calls the package's solvers, level merge or resolution
floor. Only the merge tolerance's constant is shared, so that a level
here is a level there.
"""

import itertools
import math

import numpy as np

from rodeo_sched.spectral import TARGET_RTOL


def xx_eigenstates(length: int, coupling: float, up_sites) -> tuple:
    """(energies, weights) of every eigenstate of the open XX chain with
    len(up_sites) up spins, one per set of occupied modes: its energy and
    the weight on it of the basis state with up spins at ``up_sites``
    (0-based sites)."""
    modes = np.arange(1, length + 1)
    sites = np.asarray(sorted(up_sites)) + 1
    phi = math.sqrt(2.0 / (length + 1)) * np.sin(np.pi * np.outer(modes, sites) / (length + 1))
    single = 2.0 * coupling * np.cos(np.pi * modes / (length + 1))
    energies, weights = [], []
    for occupied in itertools.combinations(range(length), len(sites)):
        rows = list(occupied)
        energies.append(math.fsum(single[rows]))
        weights.append(np.linalg.det(phi[rows]) ** 2)
    return np.array(energies), np.array(weights)


def tfim_even_energies(length: int, coupling: float, field: float) -> np.ndarray:
    """Every level of the even-parity sector of the periodic TFIM ring,
    ascending, one per even set of occupied modes: 2**(L - 1) in all."""
    k = np.pi * (2 * np.arange(length) + 1) / length
    modes = 2.0 * np.sqrt(coupling**2 + field**2 - 2.0 * coupling * field * np.cos(k))
    energies = [math.fsum(np.where(occupied, 0.5, -0.5) * modes)
                for occupied in itertools.product((False, True), repeat=length)
                if sum(occupied) % 2 == 0]
    return np.sort(energies)


def merged_levels(energies, weights, e_target: float) -> tuple:
    """((offsets, weights) in the target manifold, (offsets, weights)
    outside it), each ascending: energies sorted, then chained into one
    level while consecutive ones lie within TARGET_RTOL of the scale
    max(1, |E_t|, max |E|); a level sits at its weight-averaged offset
    (its one energy's offset when it has one) and weighs their sum."""
    tol = TARGET_RTOL * max(1.0, abs(e_target), max(abs(e) for e in energies))
    target, rest = ([], []), ([], [])
    for inside in (True, False):
        pairs = sorted((e - e_target, w) for e, w in zip(energies, weights)
                       if (abs(e - e_target) <= tol) == inside)
        out = target if inside else rest
        group: list = []
        for d, w in pairs + [(math.inf, 0.0)]:
            if group and d - group[-1][0] > tol:
                total = math.fsum(g[1] for g in group)
                offset = (group[0][0] if len(group) == 1 or total == 0
                          else math.fsum(g[0] * g[1] for g in group) / total)
                out[0].append(offset)
                out[1].append(total)
                group = []
            group.append((d, w))
    return tuple((np.array(o), np.array(w)) for o, w in (target, rest))
