"""Command-line interface: outputs, manifests, config files, exit codes."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rodeo_sched import (TimeSchedule, cli, read_schedule, rsn_quadrature, spectral,
                         superiteration_schedule)
from rodeo_sched.cli import PRESETS, _config_flags, _manifest, build_parser, main
from rodeo_sched.quadrature import ABS_TOL
from rodeo_sched.spectral import band_from_json

README = Path(__file__).resolve().parent.parent / "README.md"


def _run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest_hash=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0].split("=", 1)[1], header, rows


def _usage_error(argv, capsys) -> str:
    """stderr of a command line that exits 2; any other exit or exception fails."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    return capsys.readouterr().err


def test_rsn_dual_convention(capsys):
    code, doc = _run_json(["rsn", "--band", "0.1", "1.0"], capsys)
    assert code == 0
    res = doc["result"]
    np.testing.assert_allclose(res["zeta_quadrature"], 1.8, rtol=1e-10)
    np.testing.assert_allclose(res["band_average"], 1.0, rtol=1e-10)


def test_rsn_closed_and_quadrature_agree(capsys):
    code, doc = _run_json(
        ["rsn", "--band", "0.1", "1.0", "--times", "3.4,7.9,12.0"], capsys)
    assert code == 0
    res = doc["result"]
    assert res["discrepancy"] < 1e-10
    np.testing.assert_allclose(res["zeta_closed_form"], res["zeta_quadrature"],
                               rtol=1e-8)


def test_rsn_table_row_value(capsys):
    times = "3.382,4.118,6.312,10.303,14.929,23.788"
    code, doc = _run_json(["rsn", "--band", "0.1", "1.0", "--times", times],
                          capsys)
    assert code == 0
    np.testing.assert_allclose(doc["result"]["zeta_closed_form"], 1.61e-3,
                               rtol=5e-3)


def test_rsn_geometric_schedule_flags(capsys):
    code, doc = _run_json(
        ["rsn", "--band", "0.1", "1.0", "--alpha", "1.5", "--n-samples", "5",
         "--total-time", "20"], capsys)
    assert code == 0
    assert doc["result"]["n_samples"] == 5
    np.testing.assert_allclose(doc["result"]["total_time"], 20.0, rtol=1e-12)


def test_rsn_file_inputs_share_one_resolver(tmp_path, capsys):
    band = tmp_path / "band.json"
    band.write_text(json.dumps({"delta_min": 0.1, "delta_max": 1.0,
                                "density": {"tabulated": [[0.1, 2.0], [1.0, 1.0]]}}))
    code, doc = _run_json(["rsn", "--band-file", str(band), "--e-target", "0",
                           "--times", "3,7"], capsys)
    assert code == 0
    res = doc["result"]
    assert res["zeta_closed_form"] is None
    assert res["band_average"] == res["zeta_quadrature"] / band_from_json(band).total_weight()
    levels = tmp_path / "levels.csv"
    levels.write_text("energy,weight\n0,0.5\n0.5,0.25\n1,0.25\n")
    code, doc = _run_json(["rsn", "--spectrum-file", str(levels), "--times", "3,7"], capsys)
    assert code == 0
    assert doc["result"]["zeta_closed_form"] is None
    assert "band_average" not in doc["result"]


def test_csv_output_and_manifest_sidecar(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--model", "xx", "--length", "6",
                 "--out", str(out), "--format", "csv"])
    assert code == 0
    digest, header, rows = _read_csv(out)
    assert header == ["index", "energy"]
    assert len(rows) == 20  # C(6,3) states in the half-filled sector
    sidecar = json.loads((tmp_path / "spec.csv.manifest.json").read_text())
    assert sidecar["hash"] == digest
    assert sidecar["command"] == "spectrum"
    assert sidecar["outputs"] == [str(out)]


def test_manifest_hash_is_reproducible(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert main(["spectrum", "--model", "xx", "--length", "4",
                     "--out", str(p), "--format", "csv"]) == 0
    digests = [_read_csv(p)[0] for p in paths]
    assert digests[0] == digests[1]


def test_manifest_hash_tracks_parameters(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["spectrum", "--model", "xx", "--length", "4", "--out", str(out_a),
          "--format", "csv"])
    main(["spectrum", "--model", "xx", "--length", "6", "--out", str(out_b),
          "--format", "csv"])
    assert _read_csv(out_a)[0] != _read_csv(out_b)[0]


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"band": [0.2, 1.0], "total-time": 9.0,
                               "alpha": 1.5, "n-samples": 3}))
    code, doc = _run_json(["rsn", "--config", str(cfg)], capsys)
    assert code == 0
    assert doc["manifest"]["params"]["band"] == [0.2, 1.0]
    assert doc["manifest"]["params"]["total_time"] == 9.0
    code, doc = _run_json(["rsn", "--config", str(cfg), "--total-time", "4.0"],
                          capsys)
    assert code == 0
    assert doc["manifest"]["params"]["total_time"] == 4.0


@pytest.mark.parametrize("key", ["config", "help"])
def test_config_cannot_name_a_config_or_help(key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: True}))
    assert main(["rsn", "--config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_config_unknown_key_fails(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"not-a-flag": 1}')
    assert main(["rsn", "--config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_optimize_times_runs_and_converges(capsys):
    code, doc = _run_json(
        ["optimize-times", "--band", "0.1", "1.0", "--n-samples", "3",
         "--total-time", "12", "--budget", "6000"], capsys)
    assert code == 0
    res = doc["result"]
    assert res["converged"]
    assert res["total_time_used"] <= 12.0 * (1 + 1e-9)
    assert 0 < res["zeta"] < 1.8


# The calls and schedules of one seeded search: DE generations each in one
# call, and one schedule per polish value-and-gradient call.
SEARCH_COUNTS = {"objective_calls": {"generations": 20, "polish": 22},
                 "schedules_scored": {"generations": 480, "polish": 22}}


def test_search_commands_count_their_objective_calls_outside_the_hash(tmp_path, capsys):
    search = ["--band", "0.1", "1.0", "--n-samples", "4", "--budget", "480",
              "--restarts", "2", "--seed", "1"]
    main(["optimize-times", *search, "--t0-multiple", "1"])
    doc = json.loads(capsys.readouterr().out)
    counts = doc["manifest"]["diagnostics"]
    assert counts == SEARCH_COUNTS
    assert sum(counts["schedules_scored"].values()) == doc["result"]["evaluations"]
    assert counts["objective_calls"]["polish"] == counts["schedules_scored"]["polish"]
    again = tmp_path / "again.json"
    main(["optimize-times", *search, "--t0-multiple", "1", "--out", str(again), "--format", "json"])
    assert json.loads(again.read_text())["manifest"]["hash"] == doc["manifest"]["hash"]
    main(["table1", *search])
    doc = json.loads(capsys.readouterr().out)
    rows = doc["manifest"]["diagnostics"]["rows"]
    assert [row["limit"] for row in rows] == ["0.5*T0", "1*T0", "2*T0", "3*T0"]
    assert {k: rows[1][k] for k in SEARCH_COUNTS} == SEARCH_COUNTS


def test_optimize_alpha_band_backend(capsys):
    code, doc = _run_json(
        ["optimize-alpha", "--band", "0.1", "1.0", "--n-samples", "10",
         "--t0-multiple", "0.5"], capsys)
    assert code == 0
    assert doc["result"]["alpha_opt"] > 1.9


def test_optimize_alpha_model_backend(capsys):
    code, doc = _run_json(
        ["optimize-alpha", "--model", "xx", "--length", "6", "--n-samples",
         "12", "--t0-multiple", "1.0"], capsys)
    assert code == 0
    assert 1.0 <= doc["result"]["alpha_opt"] <= 2.0
    assert doc["manifest"]["params"]["resolved_initial_state"] == "e1"


def test_chain_commands_report_the_levels_they_score(capsys):
    # TFIM plus: 90 of the 120 non-target levels weigh only round-off
    code, doc = _run_json(["curve", "--model", "tfim", "--length", "10", "--n-samples", "10",
                           "--t-points", "2", "--skip-rra"], capsys)
    assert code == 0
    # and the objective's work: 3 fixed-ratio calls, 2 grid calls of 240
    # columns, 10 refinement calls (9 of them after the first search ended
    # on the upper bound) and the adaptive fidelities' call
    assert doc["manifest"]["diagnostics"] == {
        "levels": 30, "levels_below_resolution": 90,
        "objective_calls": 16, "schedules_scored": 499, "one_column_calls": 9,
        "ratio_search": {"grid_calls": 2, "refinement_calls": 10, "parabolic_steps": 8,
                         "golden_steps": 1, "bound_tests": 2, "flat_searches": 0}}
    code, doc = _run_json(["optimize-alpha", "--model", "xx", "--length", "10",
                           "--initial-state", "e1", "--n-samples", "10",
                           "--t0-multiple", "1"], capsys)
    assert code == 0
    # one grid call, then one column a refinement step
    assert doc["manifest"]["diagnostics"] == {
        "levels": 121, "levels_below_resolution": 0,
        "objective_calls": 7, "schedules_scored": 246, "one_column_calls": 6,
        "ratio_search": {"grid_calls": 1, "refinement_calls": 6, "parabolic_steps": 6,
                         "golden_steps": 0, "bound_tests": 0, "flat_searches": 0}}
    code, doc = _run_json(["optimize-alpha", "--band", "0.1", "1.0", "--n-samples", "10",
                           "--t0-multiple", "0.5"], capsys)
    # a band has no levels: the search's counts alone, a bound test that held
    assert doc["manifest"]["diagnostics"] == {
        "ratio_search": {"grid_calls": 1, "refinement_calls": 1, "parabolic_steps": 0,
                         "golden_steps": 0, "bound_tests": 1, "flat_searches": 0}}


def test_product_function_sweep_csv(tmp_path):
    out = tmp_path / "pf.csv"
    code = main(["product-function", "--alpha", "2.0", "--theta-min", "1",
                 "--theta-max", "10", "--theta-points", "7",
                 "--out", str(out), "--format", "csv"])
    assert code == 0
    _, header, rows = _read_csv(out)
    assert header == ["theta", "value"]
    assert len(rows) == 7
    theta, value = (float(c) for c in rows[0])
    np.testing.assert_allclose(value, (np.sin(theta) / theta) ** 2, rtol=1e-9)


def test_decay_fit_reports_flag(capsys):
    code, doc = _run_json(
        ["decay-fit", "--alpha", "2.0", "--theta-max", "2000",
         "--windows", "20"], capsys)
    assert code == 0
    assert not doc["result"]["non_decaying"]
    assert abs(doc["result"]["gamma"] - 2.0) < 0.2
    # exact work counts, outside the hash
    work = doc["manifest"]["diagnostics"]
    assert work["factors_per_sample"] == 45
    assert sum(work["factors"].values()) == work["theta_samples"] * 45
    assert work["factors"]["angle_addition"] > 0 and work["factors"]["series"] > 0


def test_schedule_fit_single_point(capsys):
    code, doc = _run_json(
        ["schedule-fit", "--preset", "xi2", "--n-samples", "40",
         "--t0-multiple", "2.0", "--trotter-dt", "0.0314159"], capsys)
    assert code == 0
    res = doc["result"]
    assert 1.0 <= res["alpha_opt"] <= 2.0
    assert res["surviving_times"] <= 40
    assert all(t > 0 for t in res["schedule"])


def test_schedule_fit_rejects_large_dt(capsys):
    code = main(["schedule-fit", "--preset", "xi2", "--total-time", "1.0",
                 "--trotter-dt", "5.0"])
    assert code == 1
    assert "smaller than the total time" in capsys.readouterr().err


def test_readme_sweep_flags_run(tmp_path):
    # the README's sweep, with a smaller grid and fewer samples
    out = tmp_path / "sweep.csv"
    code = main(["schedule-fit", "--preset", "xi2", "--n-samples", "20", "--sweep",
                 "--t-min-mult", "0.1", "--t-max-mult", "10", "--t-points", "3",
                 "--dt-mults", "0.001,0.01,0.05", "--out", str(out)])
    assert code == 0
    _, header, rows = _read_csv(out)
    assert header == ["total_time", "t_over_t0", "dt_mult", "alpha_opt", "zeta",
                      "log10_zeta", "surviving_times"]
    assert len(rows) == 9
    for row in rows:
        rec = dict(zip(header, (float(c) for c in row)))
        assert rec["dt_mult"] in (0.001, 0.01, 0.05)
        assert 1.0 <= rec["alpha_opt"] <= 2.0
        assert rec["zeta"] >= 0.0


# (alpha_opt, zeta) of every sweep point, dt 0.01 T0 then 0.05 T0, as the
# ratio search gives them integrating every schedule alone. Brent's steps
# on log values moved every ratio; the two 0.1 T0 points now stop on the
# upper bound after its test, at lower zetas (0.9879755799374729 and
# 0.9999999999999969 before), and 10 T0 at dt 0.01 T0 ends on another
# plateau of the floored staircase, 5.8% higher (2.2148106857685703e-11).
SWEEP_PINS = [
    ("2.0", "0.9828571209991575"),
    ("1.9822390999696566", "0.6706716002528975"),
    ("1.6253970661513644", "0.004211951766176194"),
    ("1.1113610829393288", "2.342881700157601e-11"),
    ("2.0", "0.9856852754616824"),
    ("1.7571202229179474", "0.735903161769563"),
    ("1.5906525489487509", "0.005388188021892767"),
    ("1.1111080600994052", "8.602309452521372e-11"),
]


def test_sweep_integrates_each_floored_schedule_once(monkeypatch, tmp_path):
    calls, fits = [], []
    real_plan, real_searches = spectral._lattice_plan, cli._optimize_alphas

    def plan(steps):
        calls[-1].append(np.array(steps))
        return real_plan(steps)

    def searches(objective, n_samples, totals, alpha_bounds, work):
        calls.append([])  # the integer steps integrated, one list per Trotter step
        fits.append(len(totals))
        return real_searches(objective, n_samples, totals, alpha_bounds, work)

    monkeypatch.setattr(spectral, "_lattice_plan", plan)
    monkeypatch.setattr(cli, "_optimize_alphas", searches)
    out = tmp_path / "sweep.json"
    assert main(["schedule-fit", "--preset", "xi2", "--sweep", "--n-samples", "100",
                 "--t-points", "4", "--dt-mults", "0.01,0.05",
                 "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    got = [(repr(p["alpha_opt"]), repr(p["zeta"])) for p in doc["result"]["points"]]
    assert got == SWEEP_PINS
    assert fits == [4, 4] and sum(fits) == len(SWEEP_PINS)
    for step in calls:
        # no floored schedule of a Trotter step is integrated twice, in a
        # grid call or a refinement call, by one fit or by two
        columns = [col.tobytes() for m in step for col in m.T]
        assert len(set(columns)) == len(columns)
    counts = doc["manifest"]["diagnostics"]
    assert counts["schedules_integrated"] == sum(m.shape[1] for step in calls for m in step)
    assert counts["schedules_integrated"] < counts["schedules_scored"]


def test_a_large_step_count_stays_on_the_distinct_step_table(tmp_path, capsys, monkeypatch):
    # Ten even levels at 3000 T0, dt = 1e-3, N = 1000: the largest step K is
    # about 9.4e6, against N S = 240,000 steps in a grid call, so the
    # distinct steps are sorted out rather than marked in a (K + 1) mask,
    # and the table holds at most one entry per step a call holds.
    # tracemalloc's peak for the whole command measured 17.3 MB (9.5 MB
    # with the series kernel, which holds no step matrices).
    spectrum = tmp_path / "ten.csv"
    spectrum.write_text("energy,weight\n" + "".join(f"{e},0.1\n" for e in range(10)))
    calls, real = [], spectral._add_lattice

    def lattice(half, steps, *rest):
        # read before the call, which may write ranks over its steps
        top, size = int(steps.max()), steps.size
        entries = real(half, steps, *rest)
        calls.append((top, size, entries, len(half)))
        return entries

    monkeypatch.setattr(spectral, "_add_lattice", lattice)
    tracemalloc.start()
    try:
        code, doc = _run_json(["schedule-fit", "--spectrum-file", str(spectrum),
                               "--e-target", "0", "--trotter-dt", "1e-3", "--n-samples", "1000",
                               "--t0-multiple", "3000"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 24 * 2 ** 20
    assert any(top + 1 > size for top, size, _, _ in calls)
    assert all(entries <= levels * min(top, size) for top, size, entries, levels in calls)
    # Ranked by log value, the search leaves the false optimum that the
    # underflowed linear values gave (1.00027994568971, zeta 0.0); the
    # log-space reference is test_optimize's.
    assert doc["result"]["alpha_opt"] == 1.0006673200888847
    assert doc["result"]["zeta"] == 0.0 and doc["result"]["log10_zeta"] < -400


@pytest.mark.parametrize("flags", [["--trotter-dt", "1e-300"], ["--trotter-dt", "5e-324"],
                                   ["--sweep", "--t-points", "2", "--dt-mults", "0.01,1e-300"],
                                   ["--sweep", "--t-points", "2", "--dt-mults", "5e-324"]])
def test_a_trotter_step_too_small_for_the_lattice_is_refused(flags, capsys):
    # A total of 2**53 steps or more is refused before any search, naming the
    # step and the total; 5e-324 once overflowed numpy's divide with a
    # RuntimeWarning and then failed inside the kernel.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["schedule-fit", "--preset", "xi2", "--n-samples", "20",
                     "--t0-multiple", "1", *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert re.fullmatch(r"error: trotter step \S+ is too small for the total time \S+: the "
                        r"schedule would take 2\*\*53 or more steps\n", err), err


# The Trotter sweeps of the benchmark (both presets, 10 totals, two steps).
_SWEEP_JOBS = {p: ["schedule-fit", "--preset", p, "--sweep", "--n-samples", "100",
                   "--t-min-mult", "0.1", "--t-max-mult", "10", "--t-points", "10",
                   "--dt-mults", "0.01,0.05"] for p in ("xi2", "xi1")}


@pytest.mark.parametrize("preset, kernel_calls", [("xi2", 46), ("xi1", 64)])
def test_a_trotter_sweep_counts_its_lattice_kernel_calls(preset, kernel_calls, capsys,
                                                          monkeypatch):
    # The manifest counts every lattice kernel call of a benchmark sweep job.
    calls, kernel = [], spectral._add_lattice

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(spectral, "_add_lattice", counted)
    code, doc = _run_json(_SWEEP_JOBS[preset], capsys)
    assert code == 0
    assert len(calls) == doc["manifest"]["diagnostics"]["kernel_calls"] == kernel_calls


def test_schedule_fit_counts_its_kernel_work_the_same_every_run(tmp_path, capsys):
    spectrum = tmp_path / "levels.csv"
    spectrum.write_text("energy,weight\n0,0.5\n0.5,0.25\n1,0.25\n")
    for argv in (_SWEEP_JOBS["xi2"],
                 ["schedule-fit", "--spectrum-file", str(spectrum), "--e-target", "0",
                  "--trotter-dt", "0.01", "--n-samples", "50", "--t0-multiple", "3"]):
        runs = [_run_json(argv, capsys)[1] for _ in range(2)]
        first, second = (doc["manifest"]["diagnostics"] for doc in runs)
        assert first == second
        assert first["kernel_calls"] > 0 and first["gathered"] >= first["lattice"] > 0
        # outside the hash, as wall_time is
        assert runs[0]["manifest"]["hash"] == runs[1]["manifest"]["hash"]


def test_flat_trotter_grid_reports_its_one_column_value(capsys):
    # Every ratio floors to the empty schedule: the grid integrates its one
    # distinct column, as the golden-section steps do.
    code, doc = _run_json(["schedule-fit", "--preset", "xi1", "--n-samples", "100",
                           "--t0-multiple", "0.1", "--trotter-dt", "0.25"], capsys)
    assert code == 0
    assert doc["result"]["flat"] and doc["result"]["surviving_times"] == 0
    assert doc["result"]["zeta"] == rsn_quadrature(PRESETS["xi1"](), -1.0, TimeSchedule([]))


@pytest.mark.parametrize("mode", (["--sweep", "--t-points", "2", "--dt-mults", "0.01"],
                                  ["--t0-multiple", "2", "--trotter-dt", "0.05"]))
def test_schedule_fit_manifest_counts_evaluations(mode, tmp_path):
    out = tmp_path / "fit.csv"
    assert main(["schedule-fit", "--preset", "xi1", "--n-samples", "30", *mode,
                 "--out", str(out)]) == 0
    digest, _, _ = _read_csv(out)
    manifest = json.loads((tmp_path / "fit.csv.manifest.json").read_text())
    assert manifest["hash"] == digest
    counts = manifest["diagnostics"]
    assert 0 < counts["schedules_integrated"] <= counts["schedules_scored"]
    if "--sweep" in mode:
        assert counts["schedules_integrated"] < counts["schedules_scored"]


def test_schedule_fit_counts_zetas_below_the_integrator_tolerance(tmp_path, capsys):
    code, doc = _run_json(["schedule-fit", "--preset", "xi2", "--sweep", "--n-samples", "100",
                           "--t-points", "3", "--dt-mults", "0.01", "--t-min-mult", "1",
                           "--t-max-mult", "10"], capsys)
    assert code == 0
    zetas = [p["zeta"] for p in doc["result"]["points"]]
    below = doc["manifest"]["diagnostics"]["zeta_below_tolerance"]
    assert below == sum(z < ABS_TOL for z in zetas) == 1
    # a discrete spectrum is summed, not integrated: no tolerance applies
    spectrum = tmp_path / "levels.csv"
    spectrum.write_text("energy,weight\n0,0.5\n0.5,0.25\n1,0.25\n")
    code, doc = _run_json(["schedule-fit", "--spectrum-file", str(spectrum), "--e-target", "0",
                           "--n-samples", "10", "--t0-multiple", "2", "--trotter-dt", "0.01"],
                          capsys)
    assert code == 0
    assert "zeta_below_tolerance" not in doc["manifest"]["diagnostics"]


@pytest.mark.parametrize("argv", [
    ["rsn", "--times", "1,2"],
    ["schedule-fit", "--trotter-dt", "0.01"],
])
def test_a_spectrum_file_without_rows_is_an_error(argv, tmp_path, capsys):
    # A header alone is no spectrum, not one of zero weight, nor one whose
    # every level lies on the target; both commands refuse it naming the file.
    spectrum = tmp_path / "levels.csv"
    spectrum.write_text("energy,weight\n")
    assert main(argv + ["--spectrum-file", str(spectrum), "--e-target", "0"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert f"error: {spectrum}: no energy,weight rows" in captured.err


def test_a_spectrum_file_fit_keeps_its_ratio_and_its_value_to_the_last_bits(tmp_path, capsys):
    # Values before discrete spectra were summed in log space as merged
    # levels; the sum moved zeta by 9e-12 relative and left the ratio alone.
    # Brent's steps on log values then found a lower minimum in the same
    # bracket (alpha 1.0376944736881266, zeta 3.47873244006575e-36 before).
    spectrum = tmp_path / "levels.csv"
    spectrum.write_text("energy,weight\n" + "".join(f"{k / 10!r},0.1\n" for k in range(1, 11)))
    code, doc = _run_json(["schedule-fit", "--spectrum-file", str(spectrum), "--e-target", "0",
                           "--trotter-dt", "1e-3", "--n-samples", "100", "--t0-multiple", "30"],
                          capsys)
    assert code == 0
    assert doc["result"]["alpha_opt"] == 1.037695628339346
    np.testing.assert_allclose(doc["result"]["zeta"], 2.1367579074679344e-37, rtol=1e-10)


def test_curve_small_grid(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(["curve", "--model", "xx", "--length", "6", "--n-samples",
                 "20", "--t-points", "3", "--t-min-mult", "0.5",
                 "--t-max-mult", "5", "--alphas", "2.0", "--rra-samples",
                 "10", "--out", str(out), "--format", "csv"])
    assert code == 0
    _, header, rows = _read_csv(out)
    assert header[:2] == ["total_time", "t_over_t0"]
    assert "fidelity_alpha_2" in header
    assert "alpha_opt" in header
    assert "fidelity_rra_mean" in header
    assert len(rows) == 3
    for row in rows:
        rec = dict(zip(header, (float(c) for c in row)))
        assert 0.0 <= rec["fidelity_adaptive"] <= 1.0
        assert 1.0 <= rec["alpha_opt"] <= 2.0


def test_inverted_band_is_an_error(capsys):
    err = _usage_error(["rsn", "--band", "0.5", "0.1"], capsys)
    assert "argument --band: DMAX must exceed DMIN, got 0.5 0.1" in err


@pytest.mark.parametrize("argv", [["optimize-times", "--band", "1", "1"],
                                  ["optimize-alpha", "--band", "0.2", "0.1"],
                                  ["table1", "--band", "1", "0.1"]])
def test_every_band_command_refuses_edges_out_of_order(argv, capsys):
    assert "argument --band: DMAX must exceed DMIN" in _usage_error(argv, capsys)


@pytest.mark.parametrize("line, config, low, high", [
    ("curve --model xx --t-min-mult 5 --t-max-mult 1", None, "--t-min-mult", "--t-max-mult"),
    ("curve --model xx --t-points 1 --t-min-mult 5 --t-max-mult 1", None,
     "--t-min-mult", "--t-max-mult"),
    ("schedule-fit --preset xi2 --sweep --t-min-mult 5 --t-max-mult 1", None,
     "--t-min-mult", "--t-max-mult"),
    ("product-function --alpha 2 --theta-min 10 --theta-max 1", None,
     "--theta-min", "--theta-max"),
    ("decay-fit --alpha 2 --theta-min 1e4 --theta-max 1e3", None, "--theta-min", "--theta-max"),
    ("decay-fit --alpha 2 --theta-min 1e3 --theta-max 1e3", None, "--theta-min", "--theta-max"),
    ("optimize-alpha --alpha-min 1.5 --alpha-cap 1.2", None, "--alpha-min", "--alpha-cap"),
    ("curve --model xx --alpha-min 2 --alpha-cap 2", None, "--alpha-min", "--alpha-cap"),
    ("schedule-fit --preset xi2 --trotter-dt 0.01 --alpha-min 1.9 --alpha-cap 1.2", None,
     "--alpha-min", "--alpha-cap"),
    ("decay-fit --alpha 2", {"theta_min": 1e4, "theta_max": 1e3}, "--theta-min", "--theta-max"),
])
def test_a_range_out_of_order_names_both_flags(line, config, low, high, tmp_path, capsys):
    # Low must lie strictly below high; only a one-point grid may have the
    # two equal (next test). --band has its own message (above).
    argv = shlex.split(line)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert f"argument {high}: must exceed {low}, got " in _usage_error(argv, capsys)


@pytest.mark.parametrize("line, config, flag", [
    ("schedule-fit --preset xi2 --sweep --total-time 5", None, "--total-time"),
    ("schedule-fit --preset xi2 --sweep --t0-multiple 3", None, "--t0-multiple"),
    ("schedule-fit --preset xi2 --sweep --trotter-dt 0.3", None, "--trotter-dt"),
    ("schedule-fit --preset xi2 --sweep", {"total_time": 5}, "--total-time"),
])
def test_a_sweep_refuses_the_flags_of_a_single_fit(line, config, flag, tmp_path, capsys):
    # The grid flags set every total and step; these would only move the
    # manifest hash.
    argv = shlex.split(line)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert f"argument {flag}: --sweep sets every total and step" in _usage_error(argv, capsys)


@pytest.mark.parametrize("line", [
    "schedule-fit --preset xi2 --sweep --dt-mults 0.01,0.1,1.0",  # the old default
    "schedule-fit --preset xi2 --sweep --dt-mults 0.01,0.1",      # a step equal to the first total
    "schedule-fit --preset xi2 --sweep --t-min-mult 0.04",        # below the default 0.05
])
def test_a_sweep_refuses_a_step_not_below_its_first_total(line, capsys):
    # The first total is --t-min-mult T0 and a step is --dt-mults T0; a fit
    # with its step at or above its total once exited 1 partway through.
    err = _usage_error(shlex.split(line), capsys)
    assert "argument --dt-mults: each step must lie below --t-min-mult" in err


def test_the_bare_sweep_runs(capsys):
    code, doc = _run_json(["schedule-fit", "--preset", "xi2", "--sweep"], capsys)
    assert code == 0
    assert doc["manifest"]["params"]["dt_mults"] == "0.001,0.01,0.05"
    assert len(doc["result"]["points"]) == 3 * 20


def test_a_sweep_keeps_the_single_fit_flags_at_their_defaults(capsys):
    argv = ["schedule-fit", "--preset", "xi2", "--sweep", "--n-samples", "6", "--t-points", "2",
            "--dt-mults", "0.01"]
    code, plain = _run_json(argv, capsys)
    code_default, explicit = _run_json(argv + ["--t0-multiple", "1"], capsys)
    assert code == code_default == 0
    assert explicit["manifest"]["hash"] == plain["manifest"]["hash"]
    assert explicit["result"] == plain["result"]


@pytest.mark.parametrize("line", ["curve --model xx --field 3", "optimize-alpha --model xx --field 0",
                                  "spectrum --model xx --length 4 --field=-1"])
def test_the_xx_chain_refuses_a_field(line, capsys):
    assert "argument --field: the xx chain has no field, got " in _usage_error(
        shlex.split(line), capsys)


def test_the_xx_chain_keeps_the_default_field(capsys):
    code, doc = _run_json(["spectrum", "--model", "xx", "--length", "4", "--field", "1"], capsys)
    assert code == 0 and len(doc["result"]["eigenvalues"]) == 6


@pytest.mark.parametrize("line", [
    "curve --model xx --length 4 --n-samples 5 --alphas 2 --rra-samples 3 "
    "--t-points 1 --t-min-mult 2 --t-max-mult 2",
    "schedule-fit --preset xi2 --sweep --n-samples 20 --dt-mults 0.01 "
    "--t-points 1 --t-min-mult 1 --t-max-mult 1",
    "product-function --alpha 2 --theta-points 1 --theta-min 5 --theta-max 5",
])
def test_a_one_point_grid_may_have_equal_bounds(line, capsys):
    code, doc = _run_json(shlex.split(line), capsys)
    assert code == 0


@pytest.mark.parametrize("argv, dim", [
    (["curve", "--model", "xx", "--length", "4", "--basis-index", "6"], 6),
    (["optimize-alpha", "--model", "tfim", "--length", "4", "--basis-index", "8"], 8),
    (["curve", "--model", "tfim", "--length", "4", "--sector", "full", "--basis-index", "99"],
     16),
])
def test_a_basis_index_outside_the_sector_is_a_usage_error(argv, dim, capsys):
    err = _usage_error(argv, capsys)
    assert (f"argument --basis-index: expected an index below the sector dimension {dim}, "
            f"got {argv[-1]}") in err


def test_a_chain_the_library_refuses_keeps_its_exit_1(capsys):
    # the sector check cannot size an odd chain's zero-magnetization sector
    assert main(["curve", "--model", "xx", "--length", "5", "--basis-index", "60"]) == 1
    assert "requires even length" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["optimize-alpha", "--band", "0.1", "1", "--total-time", "0"],
    ["rsn", "--alpha", "0", "--total-time", "5"],
])
def test_zero_is_a_given_value_not_an_absent_one(argv, capsys):
    # a zero total time or ratio is refused by its flag's type (exit 2),
    # not taken for an absent one
    flag = argv[argv.index("0") - 1]
    assert f"argument {flag}: expected a" in _usage_error(argv, capsys)


def test_rsn_band_rejects_a_target_energy(capsys):
    assert main(["rsn", "--band", "0.1", "1.0", "--e-target", "0.5"]) == 1
    assert "--e-target" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rsn", "--times", "3,7", "--alpha", "1.5", "--total-time", "20"],
    ["rsn", "--times", "3,7", "--schedule-file", "s.csv"],
    ["rsn", "--band", "0.1", "1.0", "--band-file", "b.json"],
    ["rsn", "--band-file", "b.json", "--spectrum-file", "s.csv"],
    ["schedule-fit", "--preset", "xi2", "--band-file", "b.json"],
    ["schedule-fit", "--band-file", "b.json", "--spectrum-file", "s.csv"],
    ["optimize-alpha", "--model", "xx", "--length", "4", "--band", "0.2", "1",
     "--n-samples", "5"],
])
def test_conflicting_inputs_are_a_usage_error(argv, capsys):
    assert "not allowed with argument" in _usage_error(argv, capsys)


@pytest.mark.parametrize("config, flags", [
    ({"times": "3,7", "alpha": 1.5, "total-time": 20}, []),
    ({"times": "3,7"}, ["--alpha", "1.5", "--total-time", "20"]),
    ({"band": [0.2, 1.0]}, ["--spectrum-file", "s.csv"]),
])
def test_config_values_obey_the_exclusive_groups(config, flags, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert "not allowed with argument" in _usage_error(["rsn", "--config", str(cfg)] + flags,
                                                       capsys)


def test_a_flag_repeating_a_grouped_config_key_wins(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"times": "3,7", "band": [0.2, 1.0]}))
    code, doc = _run_json(["rsn", "--config", str(cfg), "--times", "3,7,12"], capsys)
    assert code == 0
    assert doc["manifest"]["params"]["times"] == "3,7,12"
    assert doc["result"]["n_samples"] == 3


@pytest.mark.parametrize("config, argv", [
    ({"n_samples": 2.5}, ["rsn", "--alpha", "1.5", "--total-time", "20"]),
    ({"band": [0.1]}, ["rsn"]),
    ({"format": "xml"}, ["rsn"]),
    ({"times": [1, 2, 3]}, ["rsn"]),
    ({"initial-state": "xx"}, ["curve", "--model", "xx"]),
    ({"monotone": "yes"}, ["curve", "--model", "xx"]),
])
def test_config_values_get_the_flag_checks(config, argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert "error: " in _usage_error(argv + ["--config", str(cfg)], capsys)


def test_config_supplies_a_required_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "xx", "length": 4}))
    code, doc = _run_json(["spectrum", "--config", str(cfg)], capsys)
    assert code == 0
    assert doc["manifest"]["params"]["model"] == "xx"
    assert len(doc["result"]["eigenvalues"]) == 6  # C(4,2)


def test_config_values_become_flags_after_the_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"skip_rra": False, "sector": None, "monotone": True,
                               "field": -1, "length": 4}))
    _, commands = build_parser()
    argv = ["curve", "--model", "xx", "--config", str(cfg)]
    assert _config_flags(commands, argv) == [
        "curve", "--monotone", "--field=-1", "--length=4", *argv[1:]]
    cfg.write_text(json.dumps({"band": [0.2, 1], "times": None}))
    assert _config_flags(commands, ["rsn", "--config", str(cfg)]) == [
        "rsn", "--band", "0.2", "1", "--config", str(cfg)]
    # no --config: argv as it came
    assert _config_flags(commands, ["rsn", "--band", "0.2", "1"]) == ["rsn", "--band", "0.2", "1"]


@pytest.mark.parametrize("argv", [
    ["curve", "--model", "xx", "--initial-state", "fusion", "--basis-index", "3"],
    ["optimize-alpha", "--model", "xx", "--basis-index", "3", "--initial-state", "e1"],
])
def test_state_flags_exclude_each_other(argv, tmp_path, capsys):
    assert "not allowed with argument" in _usage_error(argv, capsys)
    # one from a config file, the other as a flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({argv[3][2:]: argv[4]}))
    assert "not allowed with argument" in _usage_error(
        argv[:3] + argv[5:] + ["--config", str(cfg)], capsys)


def test_spectrum_takes_only_chain_flags(capsys):
    _usage_error(["spectrum", "--model", "xx", "--length", "4", "--initial-state", "e1"], capsys)
    code, doc = _run_json(["spectrum", "--model", "xx", "--length", "4"], capsys)
    assert code == 0
    assert sorted(doc["manifest"]["params"]) == [
        "command", "coupling", "field", "gap", "length", "model", "sector", "sector_dim",
        "seed"]


def test_a_tiny_ratio_landscape_is_not_flat(capsys):
    # every grid value lies below 1e-12, yet they span 10^-18 to 10^-41
    code, doc = _run_json(["optimize-alpha", "--model", "xx", "--length", "10",
                           "--initial-state", "e1", "--n-samples", "100",
                           "--t0-multiple", "40", "--alpha-min", "1.02",
                           "--alpha-cap", "1.1"], capsys)
    assert code == 0
    res = doc["result"]
    assert not res["flat"]
    assert abs(res["alpha_opt"] - 1.02745) < 1e-4
    assert res["objective"] < 1e-45


def _readme_command_lines() -> list:
    """Every example command line of the README, continuation lines joined,
    as argv; the "rodeo-sched <command> [flags]" synopsis is not one."""
    text = README.read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("rodeo-sched ") and "<command>" not in line]


def test_readme_command_lines_parse():
    argvs = _readme_command_lines()
    assert argvs
    parser, _ = build_parser()
    for argv in argvs:
        parser.parse_args(argv)


def _as_config(flags: list) -> dict:
    """A config object setting ``flags``: JSON values where a token is one."""
    def value(token):
        try:
            return json.loads(token)
        except ValueError:
            return token

    groups = {}
    for token in flags:
        if token.startswith("--"):
            key = groups.setdefault(token[2:], [])
        else:
            key.append(value(token))
    return {k: True if not v else v[0] if len(v) == 1 else v for k, v in groups.items()}


# an integer for a float flag hashes as the float the flag gives
@pytest.mark.parametrize("argv", _readme_command_lines() + [
    ["rsn", "--alpha", "1.5", "--total-time", "9"]])
def test_config_of_a_command_line_parses_as_its_flags(argv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_as_config(argv[1:])))
    parser, commands = build_parser()
    flags = parser.parse_args(argv)
    config = parser.parse_args(_config_flags(commands, [argv[0], "--config", str(cfg)]))
    assert config.config == str(cfg)
    config.config = None
    assert vars(config) == vars(flags)
    assert _manifest(config)["hash"] == _manifest(flags)["hash"]


def _fresh_python(*args):
    """Run a new interpreter on the checkout. It does not see pytest's
    pythonpath setting, so it is given the src directory explicitly."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_entry_point_version():
    res = _fresh_python("-m", "rodeo_sched.cli", "--version")
    assert res.returncode == 0
    assert res.stdout.strip() == "0.1.0"


def test_scipy_loads_only_with_the_command_that_calls_it():
    # start-up time: only the optimizer and the random baseline need scipy
    script = """
import contextlib, io, json, sys
from rodeo_sched.cli import main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)

codes = [run(["rsn", "--band", "0.1", "1", "--alpha", "1.5", "--total-time", "30"])]
scipy_after_rsn = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
codes.append(run(["optimize-times", "--n-samples", "3", "--budget", "200",
                  "--restarts", "2"]))
print(json.dumps([codes, scipy_after_rsn, "scipy.optimize" in sys.modules]))
"""
    res = _fresh_python("-c", script)
    assert res.returncode == 0, res.stderr
    (rsn_code, optimize_code), scipy_after_rsn, optimizer_loaded = json.loads(res.stdout)
    assert rsn_code == 0
    assert scipy_after_rsn == []
    assert optimize_code in (0, 1)  # 1 only flags restarts that disagree
    assert optimizer_loaded


@pytest.mark.parametrize("fmt", ["csv", "json", "txt"])
def test_optimized_schedule_file_round_trips_through_rsn(tmp_path, capsys, fmt):
    # --out's extension sets the format (.json: JSON, any other: CSV), which
    # stays outside the hash; exit code 1 only flags restarts that
    # disagree, and the outputs stand
    argv = ["optimize-times", "--n-samples", "3", "--budget", "200", "--restarts", "2"]
    out = tmp_path / f"opt.{fmt}"
    assert main(argv + ["--out", str(out)]) in (0, 1)
    _, doc = _run_json(argv, capsys)
    text = out.read_text()
    written = (json.loads(text)["manifest"]["hash"] if fmt == "json"
               else text.splitlines()[0].split("=", 1)[1])
    assert written == doc["manifest"]["hash"]
    assert read_schedule(out).times.tolist() == doc["result"]["schedule"]
    code, back = _run_json(["rsn", "--schedule-file", str(out)], capsys)
    assert code == 0
    assert back["result"]["zeta_quadrature"] == doc["result"]["zeta"]
    np.testing.assert_allclose(back["result"]["zeta_closed_form"], doc["result"]["zeta"],
                               rtol=1e-10)


def test_a_ratio_fit_round_trips_through_rsn(tmp_path, capsys):
    # the JSON document holds the geometric times the search scored; the
    # CSV stays a table of the scalar fields
    argv = ["optimize-alpha", "--band", "0.1", "1", "--n-samples", "8", "--t0-multiple", "2"]
    out = tmp_path / "fit.json"
    assert main(argv + ["--out", str(out), "--format", "json"]) == 0
    result = json.loads(out.read_text())["result"]
    assert not result["flat"]
    times = superiteration_schedule(result["alpha_opt"], 8, result["total_time"]).times
    assert read_schedule(out).times.tolist() == result["schedule"] == times.tolist()
    code, back = _run_json(["rsn", "--schedule-file", str(out)], capsys)
    assert code == 0
    # the search ranks the log of the value and reports its exp
    assert float(np.exp(np.log(back["result"]["zeta_quadrature"]))) == result["objective"]
    assert main(argv + ["--out", str(tmp_path / "fit.csv")]) == 0
    _, header, rows = _read_csv(tmp_path / "fit.csv")
    assert header == ["quantity", "value"]
    assert [row[0] for row in rows] == ["alpha_opt", "objective", "log10_objective", "flat",
                                        "total_time", "n_samples"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_trotter_fit_round_trips_through_rsn(tmp_path, capsys, fmt):
    # the fit scores the floored column with its zero times, rsn the
    # surviving times read back; zero times are exact no-ops of the kernel,
    # and the two zetas measured equal, so the tolerance is zero
    band = tmp_path / "b.json"
    band.write_text(json.dumps({"delta_min": 0.0, "delta_max": 1.0, "density": "constant"}))
    argv = ["schedule-fit", "--band-file", str(band), "--e-target", "-1", "--n-samples", "30",
            "--t0-multiple", "2", "--trotter-dt", "0.05"]
    out = tmp_path / f"fit.{fmt}"
    assert main(argv + ["--out", str(out)]) == 0
    _, doc = _run_json(argv, capsys)
    result = doc["result"]
    assert not result["flat"] and 0 < result["surviving_times"] < 30
    assert read_schedule(out).times.tolist() == result["schedule"]
    if fmt == "csv":
        _, header, rows = _read_csv(out)
        assert header == ["index", "time"]
        assert [int(row[0]) for row in rows] == list(range(result["surviving_times"]))
    code, back = _run_json(["rsn", "--band-file", str(band), "--e-target", "-1",
                            "--schedule-file", str(out)], capsys)
    assert code == 0
    # the search ranks the log of the value and reports its exp
    assert float(np.exp(np.log(back["result"]["zeta_quadrature"]))) == result["zeta"]


@pytest.mark.parametrize("out, fmt", [("o.json", "csv"), ("o.csv", "json"), ("o", "json")])
def test_a_format_contradicting_the_out_suffix_is_a_usage_error(out, fmt, tmp_path, capsys):
    err = _usage_error(["rsn", "--out", str(tmp_path / out), "--format", fmt], capsys)
    assert f"argument --format: {fmt} contradicts --out" in err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("argv", [
    ["optimize-alpha", "--model", "xx", "--length", "2", "--coupling", "0"],
    ["curve", "--model", "tfim", "--length", "2", "--coupling", "0", "--field", "0"],
])
def test_a_chain_without_a_gap_says_so(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: every level lies in the target manifold; no gap exists\n")


def test_a_config_list_for_a_one_value_flag_names_the_key_and_the_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"times": [1, 2, 3]}))
    assert (f"rodeo-sched rsn: error: config key 'times' in {cfg} is a list, "
            "but --times takes none") in _usage_error(["rsn", "--config", str(cfg)], capsys)


def _valued_flags() -> list:
    """(command, flag, action) of every flag that takes a value."""
    return [(command, action.option_strings[0], action)
            for command, parser in build_parser()[1].items()
            for action in parser._actions if action.option_strings and action.nargs != 0]


def _refusal(command, flag, value) -> str:
    """The usage error that ``flag``'s type gives for ``value``."""
    [action] = [a for c, f, a in _valued_flags() if (c, f) == (command, flag)]
    with pytest.raises(argparse.ArgumentTypeError) as info:
        action.type(value)
    return f"error: argument {flag}: {info.value}"


# Values outside the domain of each flag type. Every flag of a type gets
# every value below; a flag that takes a value has a path, choices or one
# of these types.
OUTSIDE = {
    cli._positive_float: ["0", "-0.01", "-1", "-2", "-5", "inf", "nan", "x"],
    cli._fraction: ["0", "1", "2", "nan"],
    cli._finite_float: ["inf", "-inf", "nan", "x"],
    cli._ratio: ["0.5", "1", "inf", "nan"],
    cli._schedule_ratio: ["0", "0.5", "inf", "nan"],
    cli._positive_int: ["-5", "-1", "0", "2.5", "x"],
    cli._nonnegative_int: ["-3", "-1", "2.5"],
    cli._chain_length: ["-2", "0", "1"],
    cli._positive_list: ["", "0", "0.01,-0.1", "0.01,x", "1,inf"],
    cli._time_list: ["1,-2", "-0.5", "inf", "nan", "x"],
    # 1.5000001 prints as 1.5 under :g, the name of its curve column
    cli._ratio_list: ["0.5", "2,0.99", "inf", "1,x", "1.5,1.5000001,2", "2,2.0"],
}
PATH_FLAGS = ("--out", "--config", "--band-file", "--spectrum-file", "--schedule-file")
DOMAIN_CASES = [(command, flag, value) for command, flag, action in _valued_flags()
                if action.type in OUTSIDE for value in OUTSIDE[action.type]]


@pytest.mark.parametrize("command, flag, value", DOMAIN_CASES,
                         ids=[f"{c} {f}={v}" for c, f, v in DOMAIN_CASES])
def test_a_value_outside_its_flags_domain_is_a_usage_error(command, flag, value, capsys):
    # flag=value keeps a value such as -inf from being read as a flag; a
    # type error exits before argparse looks for the required flags
    argv = [command, flag, value, "1"] if flag == "--band" else [command, f"{flag}={value}"]
    assert _refusal(command, flag, value) in _usage_error(argv, capsys)


def test_every_flag_that_takes_a_value_declares_its_domain():
    assert [(command, flag) for command, flag, action in _valued_flags()
            if flag not in PATH_FLAGS and action.choices is None
            and action.type not in OUTSIDE] == []


def test_the_readme_exit_codes_name_every_flag_with_a_domain():
    text = README.read_text()
    paragraph = text[text.index("Exit codes:"):].split("\n\n")[0]
    assert sorted({flag for _, flag, action in _valued_flags() if action.type in OUTSIDE
                   and not re.search(rf"(?<![\w-]){flag}(?![\w-])", paragraph)}) == []


def _bad_line(line, config=None):
    """(argv, config, flag) of a command line whose last flag, or whose one
    config key, holds a value outside the flag's domain."""
    argv = shlex.split(line)
    return argv, config, "--" + next(iter(config)).replace("_", "-") if config else argv[-2]


@pytest.mark.parametrize("argv, config, flag", [
    _bad_line("curve --model xx --t-min-mult -1"),
    _bad_line("curve --model xx --t-max-mult 0"),
    _bad_line("schedule-fit --preset xi2 --sweep --t-min-mult -1"),
    _bad_line("schedule-fit --preset xi2 --sweep --t-max-mult inf"),
    _bad_line("product-function --alpha 2 --theta-max 100 --theta-min -1"),
    _bad_line("product-function --alpha 2 --theta-max nan"),
    _bad_line("decay-fit --alpha 2 --theta-min x"),
    _bad_line("decay-fit --alpha 2", {"theta_max": -1e4}),
    _bad_line("decay-fit --alpha 2 --windows -1"),
    _bad_line("decay-fit --alpha 2 --windows 0"),
    _bad_line("decay-fit --alpha 2 --windows 2.5"),
    _bad_line("decay-fit --alpha 2", {"windows": -1}),
    _bad_line("decay-fit --alpha 2 --n-terms -3"),
    _bad_line("product-function --alpha 2 --n-terms -1"),
    _bad_line("product-function --alpha 2 --theta-points 0"),
    _bad_line("product-function --alpha 2 --theta-points -1"),
    _bad_line("curve --model xx --t-points 0"),
    _bad_line("curve --model xx", {"t_points": 2.5}),
    _bad_line("schedule-fit --preset xi2 --sweep --t-points 0"),
    _bad_line("curve --model xx --rra-samples 0"),
    _bad_line("rsn --alpha 2 --total-time 10 --n-samples 0"),
    _bad_line("optimize-times --n-samples -1"),
    _bad_line("optimize-times --budget 0"),
    _bad_line("optimize-times --restarts 0"),
    _bad_line("optimize-alpha --n-samples 0"),
    _bad_line("table1 --n-samples 2.5"),
    _bad_line("table1 --budget -5"),
    _bad_line("table1 --restarts 0"),
    _bad_line("curve --model xx --length 4 --n-samples 0"),
    _bad_line("schedule-fit --preset xi2 --sweep", {"n_samples": 0}),
    _bad_line("schedule-fit --preset xi2 --sweep --dt-mults ''"),
    _bad_line("schedule-fit --preset xi2 --sweep --dt-mults 0"),
    _bad_line("schedule-fit --preset xi2 --sweep --dt-mults 0.01,-0.1"),
    _bad_line("schedule-fit --preset xi2 --sweep --dt-mults 0.01,x"),
    _bad_line("optimize-times --tolerance 2"),
    _bad_line("optimize-times --tolerance 0"),
    _bad_line("table1 --tolerance nan"),
    _bad_line("table1", {"tolerance": 1}),
    _bad_line("rsn --alpha 2 --total-time -5"),
    _bad_line("optimize-times --total-time 0"),
    _bad_line("optimize-alpha --band 0.1 1 --total-time inf"),
    _bad_line("schedule-fit --preset xi2 --trotter-dt 0.01", {"total_time": -1}),
    _bad_line("optimize-times --t0-multiple -2"),
    _bad_line("optimize-alpha --band 0.1 1 --t0-multiple nan"),
    _bad_line("optimize-alpha --band 0.1 1 --t0-multiple 0"),
    _bad_line("schedule-fit --preset xi2 --trotter-dt 0.01 --t0-multiple -1"),
    _bad_line("schedule-fit --preset xi2 --trotter-dt 0"),
    _bad_line("schedule-fit --preset xi2 --trotter-dt -0.01"),
    _bad_line("decay-fit --alpha 1"),
    _bad_line("decay-fit --alpha inf"),
    _bad_line("product-function --alpha 0.5"),
    _bad_line("product-function", {"alpha": "nan"}),
    _bad_line("spectrum --model tfim --length 4 --field inf"),
    _bad_line("curve --model xx --coupling nan"),
    _bad_line("optimize-alpha --model tfim", {"coupling": "-inf"}),
    _bad_line("rsn --e-target nan"),
    _bad_line("schedule-fit --preset xi2 --trotter-dt 0.01 --e-target inf"),
    _bad_line("rsn --total-time 10 --alpha inf"),
    _bad_line("schedule-fit --preset xi2 --trotter-dt 0.01 --alpha-min 0.5"),
    _bad_line("curve --model xx --alpha-cap inf"),
    _bad_line("product-function --alpha 2 --theta inf"),
    _bad_line("curve --model xx --seed -1"),
    _bad_line("optimize-times --seed -1"),
    _bad_line("rsn --times 1", {"seed": -3}),
    _bad_line("curve --model xx --length 0"),
    _bad_line("spectrum --model tfim --length 1"),
    _bad_line("optimize-alpha --model xx", {"length": -2}),
])
def test_grid_bounds_must_be_positive(argv, config, flag, tmp_path, capsys):
    # Whole command lines, with the flags a run needs, or the value in a
    # config file; the message is the one the flag's type gives.
    value = argv[-1]
    if config is not None:
        [value] = map(str, config.values())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert _refusal(argv[0], flag, value) in _usage_error(argv, capsys)


def test_the_readme_chain_example_builds_the_curve_commands_objective(capsys, tmp_path):
    [block] = [b for b in re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
               if "state_spectrum" in b]
    example: dict = {}
    exec(block, example)
    obj = example["obj"]
    assert (obj.levels, obj.levels_below_resolution) == (121, 0)
    out = tmp_path / "c.json"
    assert main(["curve", "--model", "xx", "--length", "10", "--n-samples", "10",
                 "--t-points", "2", "--skip-rra", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    diagnostics = doc["manifest"]["diagnostics"]
    assert (diagnostics["levels"], diagnostics["levels_below_resolution"]) == (121, 0)
    assert doc["result"]["t0"] == example["t0"]
