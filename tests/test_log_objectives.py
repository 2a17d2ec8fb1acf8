"""Ratio searches on log values, far below the double range.

At N = 1000 and T = 1000 T0 a chain's infidelity is near 1e-535, and a
discrete spectrum's residual at 3000 T0 near 1e-607: their linear values
underflow to 0.0 and once ranked every ratio alike. The searches now rank
RodeoObjective.log_infidelity and TrotterObjective's log residuals. These
tests hold those logs to mpmath, the searches' ratios to a log-space scan
at twice the grid's resolution (the benchmark's optimum_gap_dex), and a
small fidelity, formed from the log weights, to mpmath.
"""

import json
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from rodeo_sched.cli import main
from rodeo_sched.hamiltonians import (HamiltonianSpec, RodeoObjective, build_sector_hamiltonian,
                                      make_initial_state, sector_symmetries, state_spectrum)
from rodeo_sched.optimize import ALPHA_FLOOR, ALPHA_GRID_POINTS
from rodeo_sched.schedules import (BASELINE_STREAM, geometric_times, half_normal_draws,
                                   trotter_floor)
from rodeo_sched.spectral import level_gap, target_mask

mpmath = pytest.importorskip("mpmath")

# A log-space scan over the search bounds (1, 2) at twice the grid's
# resolution, as the benchmark's oracle scans them.
REFERENCE = 1.0 + np.geomspace(ALPHA_FLOOR, 1.0, 2 * ALPHA_GRID_POINTS)
# One grid step in log(alpha - 1).
GRID_STEP = math.log(1.0 / ALPHA_FLOOR) / (ALPHA_GRID_POINTS - 1)


def _xx_e1():
    """(energies, weights, e_target, t0) of the XX L = 10 chain's e1 state."""
    spec = HamiltonianSpec(model="xx", length=10)
    psi = make_initial_state(spec, "basis_index", basis_index=1)
    energies, weights = state_spectrum(build_sector_hamiltonian(spec), sector_symmetries(spec),
                                       psi)
    e_target = float(energies[0])
    return energies, weights, e_target, math.pi / level_gap(energies, e_target)


def _near_reference(alpha: float, log_value: float, reference_logs) -> None:
    """The search's ratio against the log-space scan's best: its log value
    no higher (optimum_gap_dex <= 0), and its ratio within one grid step."""
    best = int(np.argmin(reference_logs))
    assert log_value <= reference_logs[best]
    assert abs(math.log((alpha - 1.0) / (REFERENCE[best] - 1.0))) <= GRID_STEP


def test_the_long_horizon_log_infidelity_matches_mpmath():
    # The benchmark's long-horizon point (N = 1000, T = 1000 T0) at the
    # ratio its search reports, log10 infidelity -535.59. Each level's
    # product of cos**2 is taken from the float64 energies and times,
    # exactly, at 30 digits. Measured: 7.4e-16 relative (9e-13 absolute on
    # a log of -1233); held to 1e-14 relative.
    energies, weights, e_target, t0 = _xx_e1()
    objective = RodeoObjective.from_levels(energies, weights, len(energies), e_target)
    times = geometric_times([1.0030434731550348], 1000, [1000.0 * t0])
    got = float(objective.log_infidelity(times)[0])
    target = target_mask(energies, e_target)
    with mpmath.workdps(30):
        exact_times = [mpmath.mpf(float(t)) for t in times[:, 0]]

        def surviving(mask):
            return mpmath.fsum(
                mpmath.mpf(float(w)) * mpmath.fprod(
                    mpmath.cos(mpmath.mpf(float(e - e_target)) * t / 2) ** 2 for t in exact_times)
                for e, w in zip(energies[mask], weights[mask]) if w > 0)

        zeta, kept = surviving(~target), surviving(target)
        exact = float(mpmath.log(zeta) - mpmath.log(zeta + kept))
    assert got / math.log(10.0) == pytest.approx(-535.59, abs=0.01)
    assert abs(got - exact) <= 1e-14 * abs(exact)


def test_the_long_horizon_search_finds_a_log_space_optimum(tmp_path):
    # Ranked by linear value (0.0 at every ratio near the optimum), the
    # search reported alpha 1.00086 at 10^-323.97, 210.55 dex above this
    # scan's best; ranked by log value it lands 1.07 dex below it.
    out = tmp_path / "long.json"
    assert main(["optimize-alpha", "--model", "xx", "--length", "10", "--initial-state", "e1",
                 "--n-samples", "1000", "--t0-multiple", "1000", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    energies, weights, e_target, t0 = _xx_e1()
    objective = RodeoObjective.from_levels(energies, weights, len(energies), e_target)
    total = result["total_time"]
    assert total == 1000.0 * t0
    logs = objective.log_infidelity(geometric_times(REFERENCE, 1000,
                                                    np.full(len(REFERENCE), total)))
    assert result["objective"] == 0.0  # below the double range
    _near_reference(result["alpha_opt"], result["log10_objective"] * math.log(10.0), logs)


def test_a_spectrum_file_fit_finds_a_log_space_optimum(tmp_path):
    # Ten even levels (energies 0..9, weight 0.1) at 3000 T0, dt = 1e-3,
    # N = 1000: the discrete residual's log-space sum underflowed when it
    # was exponentiated, so the search reported alpha 1.00028 and zeta 0.0
    # at a false optimum. The scan here is numpy's, on the floored times,
    # independent of the survival kernel. The reported log value matches
    # mpmath: measured 1.6e-15 relative, held to 1e-14.
    spectrum = tmp_path / "ten.csv"
    spectrum.write_text("energy,weight\n" + "".join(f"{e},0.1\n" for e in range(10)))
    out = tmp_path / "fit.json"
    dt, n = 1e-3, 1000
    assert main(["schedule-fit", "--spectrum-file", str(spectrum), "--e-target", "0",
                 "--trotter-dt", str(dt), "--n-samples", str(n), "--t0-multiple", "3000",
                 "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    total, deltas = result["total_time"], np.arange(1.0, 10.0)

    def log_residual(alphas):
        floored = trotter_floor(geometric_times(np.asarray(alphas), n,
                                                np.full(len(alphas), total)), dt)
        sines = np.sin(0.5 * deltas[:, None, None] * floored[None, :, :])
        with np.errstate(divide="ignore"):
            return logsumexp(np.log1p(-sines * sines).sum(axis=1) + math.log(0.1), axis=0)

    log_value = result["log10_zeta"] * math.log(10.0)
    assert result["zeta"] == 0.0
    _near_reference(result["alpha_opt"], log_value, log_residual(REFERENCE))
    with mpmath.workdps(30):
        exact_times = [mpmath.mpf(float(t)) for t in trotter_floor(
            geometric_times([result["alpha_opt"]], n, [total]), dt)[:, 0] if t > 0]
        exact = float(mpmath.log(mpmath.fsum(
            mpmath.mpf(0.1) * mpmath.fprod(mpmath.cos(int(d) * t / 2) ** 2 for t in exact_times)
            for d in deltas)))
    assert abs(log_value - exact) <= 1e-14 * abs(exact)


def _log_cos_squared_series(terms: int) -> list:
    """Coefficients c_m of log cos**2 x = sum_m c_m x**(2 m), m = 1..terms,
    exact at the working precision."""
    return [2 * (-1) ** m * mpmath.mpf(2) ** (2 * m - 1) * (mpmath.mpf(2) ** (2 * m) - 1)
            * mpmath.bernoulli(2 * m) / (m * mpmath.factorial(2 * m)) for m in range(1, terms + 1)]


def test_a_small_fidelity_keeps_every_digit(tmp_path):
    # chain-curve/1's fidelity_rra_mean at its first time, 0.1 T0: the mean
    # fidelity of 50 half-normal schedules, about 7.6e-8. As 1 - batch it
    # kept about 1e-9 relative; formed from the log weights it matches
    # mpmath: measured 1.0e-15 relative, held to 1e-14. Every phase is
    # below 0.2 here, so each level's sum of log cos**2 over a schedule is
    # the power series, to 1e-24, through the schedule's power sums: exact,
    # and far cheaper than 5000 cosines a level in mpmath.
    out = tmp_path / "curve.json"
    n, shots = 100, 50
    assert main(["curve", "--model", "xx", "--length", "10", "--initial-state", "e1",
                 "--n-samples", str(n), "--t-points", "6", "--monotone", "--seed", "1",
                 "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    got = result["fidelity_rra_mean"][0]
    energies, weights, e_target, t0 = _xx_e1()
    total = result["t_grid"][0]
    assert total == 0.1 * t0
    schedules = half_normal_draws(n, shots, (1, BASELINE_STREAM)) * (
        (total / n) * math.sqrt(math.pi / 2.0))
    target = target_mask(energies, e_target)
    keep = weights > 0
    assert float(np.abs(np.outer(energies - e_target, schedules)).max()) / 2 < 0.2
    with mpmath.workdps(30):
        series = _log_cos_squared_series(20)
        # per level, c_m h**(2 m) with h = (E - E_t) / 2, and its weight
        rows = [[c * (mpmath.mpf(float(e - e_target)) / 2) ** (2 * m)
                 for m, c in enumerate(series, start=1)] for e in energies[keep & ~target]]
        rest = [mpmath.mpf(float(w)) for w in weights[keep & ~target]]
        kept = mpmath.fsum(mpmath.mpf(float(w)) for w in weights[keep & target])
        fidelities = []
        for column in schedules.T:
            squares = [mpmath.mpf(float(t)) ** 2 for t in column]
            sums, powers = [], [mpmath.mpf(1)] * n
            for _ in series:  # the power sums sum_n t_n**(2 m)
                powers = [p * s for p, s in zip(powers, squares)]
                sums.append(mpmath.fsum(powers))
            zeta = mpmath.fsum(w * mpmath.exp(mpmath.fdot(row, sums))
                               for row, w in zip(rows, rest))
            fidelities.append(kept / (zeta + kept))
        exact = float(mpmath.fsum(fidelities) / shots)
    assert exact == pytest.approx(7.6e-8, rel=0.01)
    assert abs(got - exact) <= 1e-14 * exact
