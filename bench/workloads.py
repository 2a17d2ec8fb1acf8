"""The benchmark's four workloads: job lists and the checks of their outputs.

A workload is a fixed list of ``rodeo-sched`` command lines. The harness
appends ``--seed``, ``--out`` and ``--format json`` to each. After the
timed passes, ``check`` reads back the JSON documents the jobs wrote and
returns, per job, the reasons its output is wrong (empty when right),
plus the workload's quality figures. BENCHMARK.json gives the reason
for each workload.

Known defects the job lists step around on purpose:

- The README's sweep ``schedule-fit --preset xi2 --sweep --t-min-mult 0.1
  ... --dt-mults 0.001,0.01,0.1`` exits 1: dt = 0.1 T0 is not smaller than
  the first grid time, 0.1 T0. trotter-sweep keeps every dt below
  ``--t-min-mult``. A job that aborts partway would make a later fix read
  as a wall_s regression.
- ``optimize-times`` exits 1 when its restarts disagree (``converged``
  false) although it wrote a valid result. The harness counts such a
  row as completed; its quality shows in zeta_vs_table.
- At N = 1000, T = 1000 T0 the chain objective underflows to 0.0 and the
  ratio search reports a false optimum. long-horizon's check accepts a
  0.0 there when the log-space value is below the double range, and the
  gap shows in optimum_gap_dex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import oracles

# Published Table 1 (flat band [0.1, 1], N = 10): residual weight per
# time budget in units of T0 = pi / 0.1.
TABLE1_ZETA = {0.5: 0.153, 1.0: 0.0335, 2.0: 0.00161, 3.0: 7.42e-5}

# Residual weights are compared at the bound of acceptance criterion 3.
BAND_RTOL = 1e-8
# Trotter sweeps report rsn_quadrature values, accurate to its 1e-10
# absolute tolerance.
SWEEP_RTOL, SWEEP_ATOL = 1e-8, 1e-10
# Chain objectives: the package sums raw eigen-overlaps, the reference
# merged levels in log space; fidelities carry one rounding of 1 - x.
CHAIN_RTOL, CHAIN_ATOL = 1e-9, 1e-15


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple      # command lines, without --seed/--out/--format
    check: object    # (jobs, docs) -> (per-job error lists, quality dict)
    layers: tuple    # layer groups the jobs call (tracing.LAYER_CALLS keys)
    calibration: str = "dispatch"   # run.CALIBRATION_KERNELS key like the hot loop


def _argv(text: str) -> tuple:
    return tuple(text.split())


def _check_band(jobs, docs):
    from rodeo_sched import ContinuousBand, TimeSchedule, rsn_quadrature

    band = ContinuousBand(0.1, 1.0, np.array([[0.1, 2.0], [1.0, 2.0]]), normalize=False)
    errors, ratios = [], []
    for argv, doc in zip(jobs, docs):
        res, errs = doc["result"], []
        mult = float(argv[argv.index("--t0-multiple") + 1])
        times = np.array(res["schedule"], dtype=float)
        zeta = rsn_quadrature(band, 0.0, TimeSchedule(times=times), abs_tol=1e-13)
        if not oracles.agrees(res["zeta"], zeta, BAND_RTOL):
            errs.append(f"zeta {res['zeta']!r} vs quadrature {zeta!r}")
        limit = res["total_time_limit"]
        if not math.isclose(limit, mult * math.pi / 0.1, rel_tol=1e-12):
            errs.append(f"limit {limit!r} is not {mult} T0")
        # Rescaling onto the budget may land one rounding above it.
        if res["total_time_used"] > limit * (1 + 1e-12):
            errs.append(f"total time {res['total_time_used']!r} exceeds limit {limit!r}")
        if res["surviving_times"] != len(times):
            errs.append("surviving_times does not match the schedule")
        errors.append(errs)
        ratios.append(res["zeta"] / TABLE1_ZETA[mult])
    quality = {"zeta_vs_table": float(np.exp(np.mean(np.log(ratios))))}
    return errors, quality


def _check_sweep(jobs, docs):
    errors, gaps = [], []
    for argv, doc in zip(jobs, docs):
        preset = argv[argv.index("--preset") + 1]
        n = int(argv[argv.index("--n-samples") + 1])
        density = oracles.band_density(preset)
        t0, e_target = math.pi, -1.0  # presets live on [0, 1], target at -1
        errs, last = [], {}
        for p in doc["result"]["points"]:
            dt = p["dt_mult"] * t0
            rounded = oracles.trotter_floor(
                oracles.geometric_times(p["alpha_opt"], n, p["total_time"]), dt)
            true = oracles.gauss_legendre_residuals(
                density, 0.0, 1.0, e_target, rounded, nodes=400)[0]
            where = f"T={p['total_time']:.6g} dt={dt:.6g}"
            if not oracles.agrees(p["zeta"], true, SWEEP_RTOL, SWEEP_ATOL):
                errs.append(f"{where}: zeta {p['zeta']!r} vs Gauss-Legendre {true!r}")
            if p["surviving_times"] != len(rounded):
                errs.append(f"{where}: {p['surviving_times']} surviving times, "
                            f"expected {len(rounded)}")
            prev = last.get(p["dt_mult"])
            if prev is not None and p["zeta"] > prev * (1 + 1e-9) + 1e-300:
                errs.append(f"{where}: zeta rose along T ({prev!r} -> {p['zeta']!r})")
            last[p["dt_mult"]] = p["zeta"]
            _, gap = oracles.band_gap_dex(density, e_target, p["alpha_opt"], n,
                                          p["total_time"], dt)
            gaps.append(gap)
        errors.append(errs)
    return errors, {"optimum_gap_dex": max(gaps)}


def _chain_reference(argv, cache: dict):
    def flag(name, default):
        return argv[argv.index(name) + 1] if name in argv else default

    model = flag("--model", None)
    state = flag("--initial-state", "e1" if model == "xx" else "plus")
    key = (model, int(flag("--length", "10")), float(flag("--field", "1.0")), state)
    if key not in cache:
        cache[key] = oracles.ChainReference(*key)
    return cache[key]


def _objective_errors(where, reported, log10_true):
    """Reported infidelity against the log-space value; a value below the
    double range must read as (sub)normal zero-ish, not as a number."""
    true = 10.0 ** log10_true
    if log10_true < math.log10(oracles.REPRESENTABLE):
        if reported > oracles.REPRESENTABLE:
            return [f"{where}: objective {reported!r}, true 10^{log10_true:.2f}"]
        return []
    if not oracles.agrees(reported, true, CHAIN_RTOL, CHAIN_ATOL):
        return [f"{where}: objective {reported!r} vs log-space {true!r}"]
    return []


def _check_curve(jobs, docs):
    errors, gaps, refs = [], [], {}
    for argv, doc in zip(jobs, docs):
        ref, res, errs = _chain_reference(argv, refs), doc["result"], []
        n = int(argv[argv.index("--n-samples") + 1])
        if not math.isclose(res["t0"], ref.t0, rel_tol=1e-9):
            errs.append(f"t0 {res['t0']!r} vs reference {ref.t0!r}")
        hi = 2.0
        for i, total in enumerate(res["t_grid"]):
            where = f"T={total:.6g}"
            for key, values in res.items():
                if key.startswith("fidelity_alpha_"):
                    alpha = float(key[len("fidelity_alpha_"):])
                    log_true = ref.log10_infidelity(oracles.geometric_times(alpha, n, total))[0]
                    errs += _objective_errors(f"{where} {key}", 1.0 - values[i], log_true)
            alpha = res["alpha_opt"][i]
            log_true, gap = oracles.chain_gap_dex(ref, alpha, n, total, 1.0, hi)
            errs += _objective_errors(f"{where} adaptive", 1.0 - res["fidelity_adaptive"][i],
                                      log_true)
            gaps.append(gap)
            if "--monotone" in argv:
                hi = max(alpha, 1.0 + oracles.ALPHA_FLOOR)
            if "fidelity_rra_mean" in res:
                lo_q, mean, hi_q = (res[k][i] for k in
                                    ("fidelity_rra_p10", "fidelity_rra_mean", "fidelity_rra_p90"))
                if not 0.0 <= lo_q <= hi_q <= 1.0 or not 0.0 <= mean <= 1.0:
                    errs.append(f"{where}: random baseline out of order "
                                f"({lo_q!r}, {mean!r}, {hi_q!r})")
        errors.append(errs)
    return errors, {"optimum_gap_dex": max(gaps)}


def _check_long(jobs, docs):
    errors, gaps, refs = [], [], {}
    for argv, doc in zip(jobs, docs):
        res, errs = doc["result"], []
        if argv[0] == "optimize-alpha":
            ref = _chain_reference(argv, refs)
            total = float(argv[argv.index("--t0-multiple") + 1]) * ref.t0
            if not math.isclose(res["total_time"], total, rel_tol=1e-9):
                errs.append(f"total_time {res['total_time']!r} vs {total!r}")
            log_true, gap = oracles.chain_gap_dex(ref, res["alpha_opt"], res["n_samples"],
                                                  res["total_time"])
            errs += _objective_errors("optimum", res["objective"], log_true)
            gaps.append(gap)
        else:  # decay-fit, acceptance criterion 7
            alpha = float(argv[argv.index("--alpha") + 1])
            if alpha == 2.0:
                if abs(res["gamma"] - 2.0) >= 0.1 or res["non_decaying"]:
                    errs.append(f"alpha=2: gamma {res['gamma']!r}, "
                                f"non_decaying {res['non_decaying']}")
            elif not res["non_decaying"]:
                errs.append(f"alpha={alpha}: golden ratio not flagged non-decaying")
        errors.append(errs)
    return errors, {"optimum_gap_dex": max(gaps)}


WORKLOADS = {w.name: w for w in (
    Workload(
        "band-optimize",
        tuple(_argv(f"optimize-times --band 0.1 1.0 --n-samples 10 --t0-multiple {m} "
                    "--budget 480 --restarts 2") for m in ("0.5", "1", "2", "3")),
        _check_band,
        ("closed_form", "optimize.times"),
        "stream"),
    Workload(
        "chain-curve",
        (_argv("curve --model tfim --length 10 --field 1.0 --n-samples 100 --t-points 5"),
         _argv("curve --model xx --length 10 --initial-state e1 --n-samples 100 "
               "--t-points 6 --monotone")),
        _check_curve,
        ("hamiltonians", "optimize.alpha")),
    Workload(
        "trotter-sweep",
        tuple(_argv(f"schedule-fit --preset {p} --sweep --n-samples 100 --t-min-mult 0.1 "
                    "--t-max-mult 10 --t-points 10 --dt-mults 0.01,0.05")
              for p in ("xi2", "xi1")),
        _check_sweep,
        ("optimize.alpha", "schedules.trotter", "spectral", "quadrature")),
    Workload(
        "long-horizon",
        (_argv("optimize-alpha --model xx --length 10 --initial-state e1 "
               "--n-samples 1000 --t0-multiple 1000"),
         _argv("decay-fit --alpha 2 --theta-max 1e5"),
         _argv("decay-fit --alpha 1.618034 --theta-max 1e5")),
        _check_long,
        ("hamiltonians", "optimize.alpha", "asymptotics")),
)}
