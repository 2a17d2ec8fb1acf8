"""Command-line front end.

Subcommands cover residual-weight evaluation (rsn), schedule and ratio
optimization (optimize-times, optimize-alpha, table1), benchmark curve
generation against exact-diagonalization backends (curve, spectrum),
the suppression-product utilities (product-function, decay-fit), and
Trotter-aware ratio fitting for user spectral functions (schedule-fit).

Outputs are data files only (CSV or JSON; no plotting). Every run
resolves its full parameter set into a manifest whose hash covers the
fields needed to reproduce the run bit-identically; CSV outputs carry
the hash as a leading comment line and a sidecar .manifest.json, JSON
outputs embed the manifest. All energies are in the Hamiltonian's
natural units and times in inverse energy.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .closed_form import MAX_ENUM_N, BandModel, rsn_closed_form
from .hamiltonians import (HamiltonianSpec, RodeoObjective, build_sector_hamiltonian,
                           make_initial_state, sector_basis, sector_energies,
                           sector_symmetries, state_spectrum)
from .optimize import _optimize_alphas, adaptive_alpha_curve, optimize_alpha, optimize_times
from .quadrature import ABS_TOL, QuadratureError
from .schedules import (BASELINE_STREAM, TimeSchedule, file_format, geometric_times,
                        half_normal_draws, read_schedule, superiteration_schedule, trotter_round)
from .spectral import (ContinuousBand, TrotterObjective, band_from_json, level_gap,
                       load_spectrum_csv, rsn_quadrature, target_gap)

# Spectral-function presets for schedule fitting; shapes are normalized
# internally. Both live on [0, 1] and pair with a target below the band.
PRESETS = {
    "xi1": lambda: ContinuousBand(0.0, 1.0, density="gaussian"),
    "xi2": lambda: ContinuousBand(0.0, 1.0, density="constant"),
}


def _manifest(args: argparse.Namespace, extra: dict | None = None) -> dict:
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "out", "format", "config") and not k.startswith("_")}
    if extra:
        params.update(extra)
    core = {"command": args.command, "params": params,
            "seed": params.get("seed"), "version": __version__}
    digest = hashlib.sha256(
        json.dumps(core, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    core["hash"] = digest
    return core


def _csv_cell(v) -> str:
    if isinstance(v, (bool, np.bool_, str)):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: str, header: list, rows: list, manifest: dict) -> None:
    with open(path, "w") as fh:
        fh.write(f"# manifest_hash={manifest['hash']}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")
    with open(path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(args, result: dict, header: list | None = None, rows: list | None = None,
          extra: dict | None = None, diagnostics: dict | None = None) -> None:
    """Write CSV rows or a JSON document to --out, else print JSON. Without
    rows the CSV is the result's scalars as a quantity,value table (a list
    cell would put commas inside a CSV field); ``extra`` goes
    into the manifest's params. ``diagnostics``, like wall_time, goes into
    the manifest outside the hash."""
    wall = time.perf_counter() - args._t_start
    manifest = dict(_manifest(args, extra), wall_time=round(wall, 3),
                    outputs=[args.out] if args.out else [])
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    if rows is None:
        header = ["quantity", "value"]
        rows = [[k, v] for k, v in result.items() if not isinstance(v, list)]
    if args.out and args.format == "csv":
        _write_csv(args.out, header, rows, manifest)
        return
    doc = {"manifest": manifest, "result": result}
    text = json.dumps(doc, indent=2, sort_keys=True, default=float)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _items(text: str) -> list:
    """The entries of a list flag, separated by commas or whitespace."""
    return [p for chunk in text.split(",") for p in chunk.split()]


def _parse_floats(text: str) -> np.ndarray:
    """A list flag's numbers; its type has checked every entry."""
    return np.array([float(p) for p in _items(text)])


def _resolve_schedule(args) -> TimeSchedule:
    if args.times is not None:
        return TimeSchedule(times=_parse_floats(args.times))
    if args.schedule_file is not None:
        return read_schedule(args.schedule_file)
    if args.alpha is not None:
        if args.total_time is None:
            raise ValueError("a geometric schedule needs --total-time")
        return superiteration_schedule(args.alpha, args.n_samples, args.total_time)
    return TimeSchedule(times=np.array([]))


def _total_time(args, t0: float) -> float:
    """--total-time if given, else --t0-multiple characteristic times."""
    return args.total_time if args.total_time is not None else args.t0_multiple * t0


def _chain_spec(args) -> HamiltonianSpec:
    return HamiltonianSpec(model=args.model, length=args.length, coupling=args.coupling,
                           field=args.field, sector=args.sector or "")


def _hamiltonian_backend(args):
    """(objective, t0, extras) for the requested chain."""
    spec = _chain_spec(args)
    state_name = args.initial_state or ("e1" if spec.model == "xx" else "plus")
    if args.basis_index is not None:
        psi = make_initial_state(spec, "basis_index", basis_index=args.basis_index)
        state_name = f"basis_index:{args.basis_index}"
    elif state_name == "e1":
        psi = make_initial_state(spec, "basis_index", basis_index=1)
    elif state_name == "fusion":
        psi = make_initial_state(spec, "fusion")
    else:  # plus; --initial-state's choices admit no other name
        psi = make_initial_state(spec, "plus_projected")
    energies, weights = state_spectrum(build_sector_hamiltonian(spec),
                                       sector_symmetries(spec), psi)
    e_target = float(energies[0])
    objective = RodeoObjective.from_levels(energies, weights, len(energies), e_target)
    gap = level_gap(energies, e_target)
    extras = {"resolved_initial_state": state_name, "e_target": e_target,
              "gap": gap, "characteristic_time": math.pi / gap,
              "sector_dim": len(energies)}
    return objective, math.pi / gap, extras


def _level_counts(objective: RodeoObjective) -> dict:
    """A chain objective's levels scored and dropped (below float64 resolution) and work."""
    return {"levels": objective.levels,
            "levels_below_resolution": objective.levels_below_resolution, **objective.work}


def cmd_rsn(args) -> int:
    schedule = _resolve_schedule(args)
    closed = None
    if args.band_file or args.spectrum_file:
        spectrum, _ = _spectral_input(args)
    elif args.e_target != 0.0:
        raise ValueError("--band edges are gaps from the target; "
                         "give --e-target with --band-file or --spectrum-file")
    else:
        band = BandModel(*args.band)
        spectrum = band.quadrature_twin()
        if len(schedule) <= MAX_ENUM_N:
            closed = rsn_closed_form(band, schedule)
    zeta = rsn_quadrature(spectrum, args.e_target, schedule)
    result = {"n_samples": len(schedule), "total_time": schedule.total_time,
              "zeta_quadrature": zeta, "zeta_closed_form": closed}
    if closed is not None:
        result["discrepancy"] = abs(closed - zeta)
    if isinstance(spectrum, ContinuousBand):
        result["band_average"] = zeta / spectrum.total_weight()
    _emit(args, result)
    return 0


def _times_fields(res, limit: float) -> dict:
    """The fields optimize-times and each table1 row report of a search."""
    return {"total_time_limit": limit, "zeta": res.best_objective,
            "surviving_times": len(res.best_schedule), "converged": res.converged,
            "schedule": res.best_schedule.times.tolist()}


def _search_counts(res) -> dict:
    """A search's objective calls and schedules scored, each split between
    the DE generations and the polish."""
    return {"objective_calls": res.objective_calls, "schedules_scored": res.schedules_scored}


def cmd_optimize_times(args) -> int:
    dmin, dmax = args.band
    objective = BandModel(dmin, dmax).objective()
    total = _total_time(args, math.pi / dmin)
    res = optimize_times(objective, args.n_samples, total, budget=args.budget,
                         restarts=args.restarts, seed=args.seed, tolerance=args.tolerance)
    result = dict(_times_fields(res, total), total_time_used=res.best_schedule.total_time,
                  evaluations=res.evaluations_used, restart_bests=res.restart_bests)
    rows = [[i, t] for i, t in enumerate(res.best_schedule.times)]
    _emit(args, result, header=["index", "time"], rows=rows,
          extra={"resolved_total_time": total}, diagnostics=_search_counts(res))
    return 0 if res.converged else 1


def cmd_optimize_alpha(args) -> int:
    extras, backend = {}, None
    if args.model:
        backend, t0, extras = _hamiltonian_backend(args)
        objective = backend.batch
    else:
        band = BandModel(*args.band)
        t0 = math.pi / band.delta_min
        objective = band.objective()
    total = _total_time(args, t0)
    opt = optimize_alpha(objective, args.n_samples, total,
                         alpha_bounds=(args.alpha_min, args.alpha_cap))
    result = {"alpha_opt": opt.alpha, "objective": opt.objective, "flat": opt.flat,
              "total_time": total, "n_samples": args.n_samples,
              "schedule": superiteration_schedule(opt.alpha, args.n_samples, total).times.tolist()}
    _emit(args, result, extra=dict(extras, resolved_total_time=total),
          diagnostics=None if backend is None else _level_counts(backend))
    return 0


def cmd_table1(args) -> int:
    dmin, dmax = args.band
    objective = BandModel(dmin, dmax).objective()
    t0 = math.pi / dmin
    rows, entries, counts, all_converged = [], [], [], True
    for mult in (0.5, 1.0, 2.0, 3.0):
        res = optimize_times(objective, args.n_samples, mult * t0, budget=args.budget,
                             restarts=args.restarts, seed=args.seed,
                             tolerance=args.tolerance)
        all_converged &= res.converged
        times = " ".join(f"{t:.6f}" for t in res.best_schedule.times)
        rows.append([f"{mult:g}*T0", mult * t0, res.best_objective,
                     len(res.best_schedule), res.converged, times])
        entries.append(dict(_times_fields(res, mult * t0), limit=f"{mult:g}*T0"))
        counts.append(dict(_search_counts(res), limit=f"{mult:g}*T0"))
    _emit(args, {"rows": entries},
          header=["limit", "total_time", "zeta", "surviving_times", "converged", "schedule"],
          rows=rows, extra={"characteristic_time": t0}, diagnostics={"rows": counts})
    return 0 if all_converged else 1


def cmd_curve(args) -> int:
    objective, t0, extras = _hamiltonian_backend(args)
    fixed_alphas = _parse_floats(args.alphas)
    t_grid = np.geomspace(args.t_min_mult, args.t_max_mult, args.t_points) * t0
    columns: dict = {}
    for a in fixed_alphas:
        columns[_alpha_column(a)] = 1.0 - objective.batch(
            geometric_times(a, args.n_samples, t_grid))
    curve = adaptive_alpha_curve(objective.batch, args.n_samples, t_grid,
                                 monotone=args.monotone,
                                 alpha_bounds=(args.alpha_min, args.alpha_cap))
    columns["alpha_opt"] = [p.alpha for p in curve]
    columns["fidelity_adaptive"] = [1.0 - p.objective for p in curve]
    if not args.skip_rra:
        # Budget-matched random baseline: the half-normal width is fixed
        # by the mean total time, sigma = (T/N) sqrt(pi/2), and the same
        # draws are reused across the grid so the curve is smooth.
        base = half_normal_draws(args.n_samples, args.rra_samples,
                                 (args.seed, BASELINE_STREAM))
        sigmas = (t_grid / args.n_samples) * math.sqrt(math.pi / 2.0)
        # One call scores every grid time's draws; row i of shots is t_grid[i].
        schedules = (base[:, None, :] * sigmas[:, None]).reshape(len(base), -1)
        shots = (1.0 - objective.batch(schedules)).reshape(len(t_grid), -1)
        columns["fidelity_rra_mean"] = shots.mean(axis=1)
        columns["fidelity_rra_p10"] = np.percentile(shots, 10, axis=1)
        columns["fidelity_rra_p90"] = np.percentile(shots, 90, axis=1)

    header = ["total_time", "t_over_t0"] + list(columns)
    rows = [[t_grid[i], t_grid[i] / t0] + [columns[c][i] for c in columns]
            for i in range(len(t_grid))]
    result = {"t_grid": t_grid.tolist(), "t0": t0,
              **{c: list(map(float, columns[c])) for c in columns}}
    _emit(args, result, header=header, rows=rows, extra=extras,
          diagnostics=_level_counts(objective))
    return 0


def cmd_product_function(args) -> int:
    from .asymptotics import product_function
    n_terms = args.n_terms if args.n_terms else None
    if args.theta is not None:
        value = product_function(args.alpha, args.theta, n_terms)
        result = {"alpha": args.alpha, "theta": args.theta, "value": value}
        _emit(args, result, header=["theta", "value"], rows=[[args.theta, value]])
        return 0
    thetas = np.geomspace(args.theta_min, args.theta_max, args.theta_points)
    values = product_function(args.alpha, thetas, n_terms)
    _emit(args, {"alpha": args.alpha, "theta": thetas.tolist(), "value": values.tolist()},
          header=["theta", "value"], rows=list(map(list, zip(thetas, values))))
    return 0


def cmd_decay_fit(args) -> int:
    from .asymptotics import fit_decay_exponent
    fit = fit_decay_exponent(args.alpha, args.theta_max,
                             args.n_terms if args.n_terms else None,
                             theta_min=args.theta_min, n_windows=args.windows)
    result = {"alpha": args.alpha, "gamma": fit.gamma, "residual": fit.residual,
              "non_decaying": fit.non_decaying,
              "theta_range": list(fit.theta_range), "n_windows": args.windows}
    rows = list(map(list, zip(fit.window_centers, fit.window_maxima)))
    _emit(args, result, header=["theta_center", "envelope_max"], rows=rows,
          diagnostics=fit.work)
    return 0


def _spectral_input(args):
    """(spectrum, label) from a band file, a discrete CSV, or (schedule-fit
    only) a preset name."""
    if args.band_file:
        return band_from_json(args.band_file), args.band_file
    if args.spectrum_file:
        return load_spectrum_csv(args.spectrum_file), args.spectrum_file
    if args.preset:
        return PRESETS[args.preset](), args.preset
    raise ValueError("schedule-fit needs --preset, --band-file, or --spectrum-file")


def cmd_schedule_fit(args) -> int:
    spectrum, label = _spectral_input(args)
    t0 = math.pi / target_gap(spectrum, args.e_target)
    counts = {}  # TrotterObjective's work, summed over the fits

    def fit(totals: list, dt: float) -> list:
        for total in totals:
            if dt >= total:
                raise ValueError(f"trotter step {dt} must be smaller than the total time {total}")
            # Exact, and no numpy overflow warning: a power-of-two scaling.
            if total >= 2.0 ** 53 * dt:
                raise ValueError(f"trotter step {dt} is too small for the total time {total}: "
                                 "the schedule would take 2**53 or more steps")
        objective = TrotterObjective(spectrum, args.e_target, dt, counts)
        return [(opt, trotter_round(
                    superiteration_schedule(opt.alpha, args.n_samples, opt.total_time), dt))
                for opt in _optimize_alphas(objective, args.n_samples, totals,
                                            (args.alpha_min, args.alpha_cap))]

    def diagnostics(zetas) -> dict:
        # A band's zeta below the integrator's tolerance is not resolved; a
        # discrete spectrum is summed, not integrated.
        if not isinstance(spectrum, ContinuousBand):
            return counts
        return dict(counts, zeta_below_tolerance=sum(z < ABS_TOL for z in zetas))

    manifest_extra = {"spectral_input": label, "characteristic_time": t0}
    if args.sweep:
        t_grid = np.geomspace(args.t_min_mult, args.t_max_mult, args.t_points) * t0
        entries = [{"total_time": opt.total_time, "dt_mult": float(dm), "alpha_opt": opt.alpha,
                    "zeta": opt.objective, "surviving_times": len(rounded)}
                   for dm in _parse_floats(args.dt_mults)
                   for opt, rounded in fit(t_grid.tolist(), float(dm * t0))]
        header = ["total_time", "t_over_t0", "dt_mult", "alpha_opt", "zeta", "surviving_times"]
        rows = [[e["total_time"], e["total_time"] / t0] + [e[c] for c in header[2:]]
                for e in entries]
        _emit(args, {"points": entries}, header=header, rows=rows, extra=manifest_extra,
              diagnostics=diagnostics([e["zeta"] for e in entries]))
        return 0
    if not args.trotter_dt:  # its type admits only positive values
        raise ValueError("schedule-fit needs --trotter-dt (or --sweep)")
    [(opt, rounded)] = fit([_total_time(args, t0)], args.trotter_dt)
    result = {"alpha_opt": opt.alpha, "zeta": opt.objective, "flat": opt.flat,
              "total_time": opt.total_time, "trotter_dt": args.trotter_dt,
              "schedule": rounded.times.tolist(),
              "surviving_times": len(rounded)}
    _emit(args, result, header=["index", "time"],
          rows=[[i, t] for i, t in enumerate(rounded.times)], extra=manifest_extra,
          diagnostics=diagnostics([opt.objective]))
    return 0


def cmd_spectrum(args) -> int:
    spec = _chain_spec(args)
    energies = sector_energies(build_sector_hamiltonian(spec), sector_symmetries(spec))
    gap = level_gap(energies, float(energies[0]))
    result = {"eigenvalues": energies.tolist(),
              "ground_energy": float(energies[0]),
              "gap": gap, "characteristic_time": math.pi / gap,
              "sector_dim": len(energies)}
    rows = [[i, e] for i, e in enumerate(energies)]
    _emit(args, result, header=["index", "energy"], rows=rows,
          extra={"gap": gap, "sector_dim": len(energies)})
    return 0


def _float_type(low: float, high: float, noun: str):
    """argparse type of a number strictly between ``low`` and ``high``."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        return value
    return parse


# A grid bound or a time: a finite number above zero.
_positive_float = _float_type(0.0, math.inf, "a positive number")
_fraction = _float_type(0.0, 1.0, "a number in (0, 1)")
_finite_float = _float_type(-math.inf, math.inf, "a finite number")
# A time sample; -0.0 counts as zero.
_nonnegative_float = _float_type(math.nextafter(0.0, -1.0), math.inf, "a nonnegative number")
# The ratio of a suppression product; a geometric schedule's may also be 1.
_ratio = _float_type(1.0, math.inf, "a number above 1")
_schedule_ratio = _float_type(math.nextafter(1.0, 0.0), math.inf, "a number of at least 1")


def _count_type(least: int, noun: str):
    """argparse type of an integer of at least ``least``, described as ``noun``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        return value
    return parse


_positive_int = _count_type(1, "a positive integer")
_nonnegative_int = _count_type(0, "a nonnegative integer")
_chain_length = _count_type(2, "an integer of at least 2")


def _list_type(entry, noun: str, least: int = 0, name=None):
    """argparse type of a list of at least ``least`` entries, each in the
    domain of the type ``entry``; with ``name``, no two entries may give
    the same name(value). The text is kept as given, as the manifest
    records it."""
    def parse(text: str) -> str:
        items = _items(text)
        try:
            values = [entry(item) for item in items]
        except argparse.ArgumentTypeError:
            values = None
        if values is None or len(values) < least:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if name is not None and len({name(v) for v in values}) < len(values):
            raise argparse.ArgumentTypeError(
                f"expected {noun} that name distinct columns, got {text!r}")
        return text
    return parse


def _alpha_column(alpha: float) -> str:
    """curve's column of the fixed ratio ``alpha``."""
    return f"fidelity_alpha_{alpha:g}"


_positive_list = _list_type(_positive_float, "a list of positive numbers", least=1)
_time_list = _list_type(_nonnegative_float, "a list of nonnegative numbers")
_ratio_list = _list_type(_schedule_ratio, "a list of numbers of at least 1",
                         name=_alpha_column)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file path (default: print JSON to stdout)")
    p.add_argument("--format", choices=("csv", "json"),
                   help="output format of --out (default: json for a .json path, "
                        "else csv)")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="RNG seed")
    p.add_argument("--config", help="JSON file of flag defaults; flags override it")


def _add_band_flags(p) -> None:
    p.add_argument("--band", nargs=2, type=_positive_float, default=[0.1, 1.0],
                   metavar=("DMIN", "DMAX"), help="gap band edges")


def _add_chain_flags(p: argparse.ArgumentParser, model_group=None) -> None:
    """Chain flags; --model is required unless it joins ``model_group``, a
    mutually exclusive group of alternative inputs."""
    (model_group or p).add_argument("--model", choices=("xx", "tfim"),
                                    required=model_group is None)
    p.add_argument("--length", type=_chain_length, default=10)
    p.add_argument("--coupling", type=_finite_float, default=1.0)
    p.add_argument("--field", type=_finite_float, default=1.0)
    p.add_argument("--sector", choices=("zero_magnetization", "even_parity", "full"),
                   default=None, help="default: the model's native sector")


def _add_state_flags(p: argparse.ArgumentParser) -> None:
    state = p.add_mutually_exclusive_group()
    state.add_argument("--initial-state", choices=("e1", "fusion", "plus"), default=None)
    state.add_argument("--basis-index", type=_nonnegative_int, default=None,
                       help="start from this ordered sector basis vector")


def _add_budget_flags(p: argparse.ArgumentParser, n_samples: int) -> None:
    p.add_argument("--n-samples", type=_positive_int, default=n_samples,
                   help="time samples per schedule")
    p.add_argument("--total-time", type=_positive_float,
                   help="total time of each schedule")
    p.add_argument("--t0-multiple", type=_positive_float, default=1.0,
                   help="time budget in characteristic times T0 (when --total-time "
                        "absent)")


def _add_alpha_bounds(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha-min", type=_schedule_ratio, default=1.0)
    p.add_argument("--alpha-cap", type=_ratio, default=2.0,
                   help="upper bound of the ratio search")


@functools.cache
def build_parser() -> tuple:
    """(parser, subcommand parsers), built once per process: parsing
    leaves both unchanged, and no command mutates a default."""
    parser = argparse.ArgumentParser(
        prog="rodeo-sched",
        description="Evaluate and optimize filtering time schedules.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rsn", help="residual weight of a schedule on a spectrum")
    spectrum = p.add_mutually_exclusive_group()
    _add_band_flags(spectrum)
    spectrum.add_argument("--band-file", help="JSON band description")
    spectrum.add_argument("--spectrum-file", help="discrete spectrum CSV (energy,weight)")
    p.add_argument("--e-target", type=_finite_float, default=0.0,
                   help="target energy of --band-file or --spectrum-file")
    schedule = p.add_mutually_exclusive_group()
    schedule.add_argument("--times", type=_time_list, help="comma-separated time samples")
    schedule.add_argument("--schedule-file", help="schedule CSV or JSON")
    schedule.add_argument("--alpha", type=_schedule_ratio,
                          help="geometric ratio (with --total-time)")
    p.add_argument("--n-samples", type=_positive_int, default=10)
    p.add_argument("--total-time", type=_positive_float)
    _add_output_flags(p)
    p.set_defaults(func=cmd_rsn)

    p = sub.add_parser("optimize-times", help="full schedule optimization on a band")
    _add_band_flags(p)
    _add_budget_flags(p, n_samples=10)
    p.add_argument("--budget", type=_positive_int, default=60000)
    p.add_argument("--restarts", type=_positive_int, default=5)
    p.add_argument("--tolerance", type=_fraction, default=0.01)
    _add_output_flags(p)
    p.set_defaults(func=cmd_optimize_times)

    p = sub.add_parser("optimize-alpha", help="geometric-ratio optimization")
    target = p.add_mutually_exclusive_group()
    _add_band_flags(target)
    _add_chain_flags(p, model_group=target)
    _add_state_flags(p)
    _add_alpha_bounds(p)
    _add_budget_flags(p, n_samples=10)
    _add_output_flags(p)
    p.set_defaults(func=cmd_optimize_alpha)

    p = sub.add_parser("table1", help="optimized residual weight at four time budgets")
    _add_band_flags(p)
    p.add_argument("--n-samples", type=_positive_int, default=10)
    p.add_argument("--budget", type=_positive_int, default=30000)
    p.add_argument("--restarts", type=_positive_int, default=3)
    p.add_argument("--tolerance", type=_fraction, default=0.01)
    _add_output_flags(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("curve", help="fidelity-vs-time curves for a spin chain")
    _add_chain_flags(p)
    _add_state_flags(p)
    _add_alpha_bounds(p)
    p.add_argument("--n-samples", type=_positive_int, default=100)
    p.add_argument("--alphas", type=_ratio_list, default="2.0,1.5,1.2",
                   help="comma-separated fixed ratios to plot")
    p.add_argument("--t-min-mult", type=_positive_float, default=0.1,
                   help="grid start in characteristic-time units")
    p.add_argument("--t-max-mult", type=_positive_float, default=20.0)
    p.add_argument("--t-points", type=_positive_int, default=12)
    p.add_argument("--monotone", action="store_true",
                   help="constrain the adaptive ratio to be nonincreasing in time")
    p.add_argument("--skip-rra", action="store_true",
                   help="omit the Gaussian-random baseline columns")
    p.add_argument("--rra-samples", type=_positive_int, default=50,
                   help="Monte Carlo schedules per width")
    _add_output_flags(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("product-function", help="evaluate the suppression product")
    p.add_argument("--alpha", type=_ratio, required=True)
    p.add_argument("--theta", type=_finite_float)
    p.add_argument("--theta-min", type=_positive_float, default=0.1)
    p.add_argument("--theta-max", type=_positive_float, default=100.0)
    p.add_argument("--theta-points", type=_positive_int, default=200)
    p.add_argument("--n-terms", type=_nonnegative_int, default=0,
                   help="cycle count (0 means the infinite-product truncation)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_product_function)

    p = sub.add_parser("decay-fit", help="power-law fit of the suppression envelope")
    p.add_argument("--alpha", type=_ratio, required=True)
    p.add_argument("--theta-min", type=_positive_float, default=100.0)
    p.add_argument("--theta-max", type=_positive_float, default=1e4)
    p.add_argument("--windows", type=_positive_int, default=50)
    p.add_argument("--n-terms", type=_nonnegative_int, default=0,
                   help="cycle count (0 means the infinite-product truncation)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_decay_fit)

    p = sub.add_parser("schedule-fit",
                       help="optimal ratio for a Trotter-rounded schedule")
    spectrum = p.add_mutually_exclusive_group()
    spectrum.add_argument("--preset", choices=tuple(PRESETS))
    spectrum.add_argument("--band-file")
    spectrum.add_argument("--spectrum-file")
    p.add_argument("--e-target", type=_finite_float, default=-1.0)
    _add_budget_flags(p, n_samples=100)
    p.add_argument("--trotter-dt", type=_positive_float, default=0.0)
    p.add_argument("--sweep", action="store_true",
                   help="emit a grid over total time and Trotter step")
    p.add_argument("--t-min-mult", type=_positive_float, default=0.1)
    p.add_argument("--t-max-mult", type=_positive_float, default=10.0)
    p.add_argument("--t-points", type=_positive_int, default=20)
    p.add_argument("--dt-mults", type=_positive_list, default="0.01,0.1,1.0",
                   help="Trotter steps in characteristic-time units (sweep mode)")
    _add_alpha_bounds(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_schedule_fit)

    p = sub.add_parser("spectrum", help="sector eigenvalues of a spin chain")
    _add_chain_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_spectrum)

    return parser, sub.choices


def _config_flags(commands: dict, argv: list) -> list:
    """argv with the --config file's values spliced in as flags right after
    the subcommand, so that one parse reads them with every check a flag
    gets, and any flag on the command line wins.

    A key is a flag name, with - or _; true adds a switch, false and null
    add nothing, a list gives one token per item, and a single value goes
    as --flag=value, so that a value such as -1 is not read as a flag. A
    list for a flag that takes one value or none exits 2 through the
    subcommand's parser, naming the key and the file.
    """
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if not path or not argv or argv[0] not in commands:
        return argv
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    command = commands[argv[0]]
    actions = {s: a for a in command._actions for s in a.option_strings}
    flags = []
    for key, value in raw.items():
        flag = "--" + key.replace("_", "-")
        if flag not in actions or flag in ("--config", "--help"):
            raise ValueError(f"unknown config key {key!r} in {path} for {argv[0]}")
        if value is True:
            flags.append(flag)
        elif isinstance(value, list):
            if actions[flag].nargs in (None, 0):
                command.error(f"config key {key!r} in {path} is a list, but {flag} takes none")
            flags += [flag, *map(str, value)]
        elif value is not False and value is not None:
            flags.append(f"{flag}={value}")
    return argv[:1] + flags + argv[1:]


# The (low, high) flag pairs of a range, with the dest of its grid's point
# count: low must lie below high, or at it on a one-point grid.
_RANGES = (("--t-min-mult", "--t-max-mult", "t_points"),
           ("--theta-min", "--theta-max", "theta_points"),
           ("--alpha-min", "--alpha-cap", None))


def _flag_pair_error(args) -> str | None:
    """The usage error of values that each parse but do not fit together:
    --band edges or a pair of _RANGES out of order, a flag the command
    ignores (xx --field; a fit's times under --sweep), or a --basis-index
    outside the chain's sector (its dimension from the sector basis, with
    no solve). A chain the library refuses exits 1 from the command."""
    band = getattr(args, "band", None)
    if band and not band[0] < band[1]:
        return f"argument --band: DMAX must exceed DMIN, got {band[0]:g} {band[1]:g}"
    if getattr(args, "model", None) == "xx" and args.field != 1.0:
        return f"argument --field: the xx chain has no field, got {args.field:g}"
    if getattr(args, "sweep", False):
        for flag, given in (("--total-time", args.total_time is not None),
                            ("--t0-multiple", args.t0_multiple != 1.0),
                            ("--trotter-dt", args.trotter_dt)):
            if given:
                return f"argument {flag}: --sweep sets every total and step from its grid flags"
    for low, high, points in _RANGES:
        lo, hi = (getattr(args, flag[2:].replace("-", "_"), None) for flag in (low, high))
        one_point = points is not None and getattr(args, points, None) == 1
        if lo is not None and not (lo < hi or (one_point and lo == hi)):
            return f"argument {high}: must exceed {low}, got {lo:g} {hi:g}"
    if getattr(args, "basis_index", None) is not None and args.model:
        try:
            dim = len(sector_basis(_chain_spec(args)))
        except ValueError:
            return None
        if args.basis_index >= dim:
            return (f"argument --basis-index: expected an index below the sector "
                    f"dimension {dim}, got {args.basis_index}")
    return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        argv = _config_flags(commands, argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args = parser.parse_args(argv)
    if args.out:
        implied = file_format(args.out)
        if args.format not in (None, implied):
            commands[args.command].error(
                f"argument --format: {args.format} contradicts --out {args.out}, "
                f"which writes {implied}")
        args.format = implied
    problem = _flag_pair_error(args)
    if problem:
        commands[args.command].error(problem)
    args._t_start = time.perf_counter()
    try:
        return args.func(args)
    except (ValueError, OSError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
