"""Command-line interface: outputs, manifests, config files, exit codes."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rodeo_sched import TimeSchedule, read_schedule, rsn_quadrature
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
    assert doc["manifest"]["diagnostics"] == {"levels": 30, "levels_below_resolution": 90}
    code, doc = _run_json(["optimize-alpha", "--model", "xx", "--length", "10",
                           "--initial-state", "e1", "--n-samples", "10",
                           "--t0-multiple", "1"], capsys)
    assert code == 0
    assert doc["manifest"]["diagnostics"] == {"levels": 121, "levels_below_resolution": 0}
    code, doc = _run_json(["optimize-alpha", "--band", "0.1", "1.0", "--n-samples", "10",
                           "--t0-multiple", "0.5"], capsys)
    assert "diagnostics" not in doc["manifest"]


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
                      "surviving_times"]
    assert len(rows) == 9
    for row in rows:
        rec = dict(zip(header, (float(c) for c in row)))
        assert rec["dt_mult"] in (0.001, 0.01, 0.05)
        assert 1.0 <= rec["alpha_opt"] <= 2.0
        assert rec["zeta"] >= 0.0


# (alpha_opt, zeta) of every sweep point, dt 0.01 T0 then 0.05 T0, as the
# ratio search gives them integrating every schedule alone. Since each
# column's kernel sums run in order whatever the column count, five zetas
# moved in their last bits (0.9879755799374728, 2.2148106857685716e-11,
# 0.7359031617695629, 0.005388188021892764 and 8.602309452521381e-11
# before); no ratio moved. The kernel's log1p(tan**2) in place of log|cos|
# moved four more (0.6706716002528976, 2.2148106857685807e-11,
# 0.005388188021892767 and 8.602309452521426e-11 before), at most 1.4e-15
# relative; again no ratio moved.
SWEEP_PINS = [
    ("1.9621967033631071", "0.9879755799374729"),
    ("1.9822392058198646", "0.6706716002528975"),
    ("1.6253967452802456", "0.004211951766176197"),
    ("1.1108737929292223", "2.2148106857685804e-11"),
    ("1.9621967033631071", "0.9999999999999969"),
    ("1.7571204344346893", "0.735903161769563"),
    ("1.5906523729598905", "0.0053881880218927675"),
    ("1.111107995198585", "8.602309452521415e-11"),
]


def test_sweep_integrates_each_floored_schedule_once(monkeypatch, tmp_path):
    from rodeo_sched import cli

    calls, real_batch, real_search = [], cli.rsn_quadrature_batch, cli.optimize_alpha

    def batch(spectrum, e_target, times, **kw):
        calls[-1].append(np.array(times))
        return real_batch(spectrum, e_target, times, **kw)

    def search(*args, **kw):
        calls.append([])  # one list of integrated matrices per fit
        return real_search(*args, **kw)

    monkeypatch.setattr(cli, "rsn_quadrature_batch", batch)
    monkeypatch.setattr(cli, "optimize_alpha", search)
    out = tmp_path / "sweep.json"
    assert main(["schedule-fit", "--preset", "xi2", "--sweep", "--n-samples", "100",
                 "--t-points", "4", "--dt-mults", "0.01,0.05",
                 "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    got = [(repr(p["alpha_opt"]), repr(p["zeta"])) for p in doc["result"]["points"]]
    assert got == SWEEP_PINS
    assert len(calls) == len(SWEEP_PINS)
    for fit in calls:
        # no floored schedule of a fit is integrated twice, in a grid call
        # or alone
        columns = [col.tobytes() for m in fit for col in m.T]
        assert len(set(columns)) == len(columns)
    counts = doc["manifest"]["diagnostics"]
    assert counts["schedules_integrated"] == sum(m.shape[1] for fit in calls for m in fit)
    assert counts["schedules_integrated"] < counts["schedules_scored"]


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
    spectrum = tmp_path / "levels.csv"
    spectrum.write_text("energy,weight\n" + "".join(f"{k / 10!r},0.1\n" for k in range(1, 11)))
    code, doc = _run_json(["schedule-fit", "--spectrum-file", str(spectrum), "--e-target", "0",
                           "--trotter-dt", "1e-3", "--n-samples", "100", "--t0-multiple", "30"],
                          capsys)
    assert code == 0
    assert doc["result"]["alpha_opt"] == 1.0376944736881266
    np.testing.assert_allclose(doc["result"]["zeta"], 3.47873244006575e-36, rtol=1e-10)


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
    assert main(["rsn", "--band", "0.5", "0.1"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["optimize-alpha", "--band", "0.1", "1", "--total-time", "0"],
    ["rsn", "--alpha", "0", "--total-time", "5"],
])
def test_zero_is_a_given_value_not_an_absent_one(argv, capsys):
    # a zero total time or ratio is refused by its flag's type (exit 2),
    # not taken for an absent one
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    flag = argv[argv.index("0") - 1]
    assert f"argument {flag}: expected a" in capsys.readouterr().err


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
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("config, flags", [
    ({"times": "3,7", "alpha": 1.5, "total-time": 20}, []),
    ({"times": "3,7"}, ["--alpha", "1.5", "--total-time", "20"]),
    ({"band": [0.2, 1.0]}, ["--spectrum-file", "s.csv"]),
])
def test_config_values_obey_the_exclusive_groups(config, flags, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as info:
        main(["rsn", "--config", str(cfg)] + flags)
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


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
    with pytest.raises(SystemExit) as info:  # any other exception is a traceback
        main(argv + ["--config", str(cfg)])
    assert info.value.code == 2
    assert "error: " in capsys.readouterr().err


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
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    # one from a config file, the other as a flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({argv[3][2:]: argv[4]}))
    with pytest.raises(SystemExit) as info:
        main(argv[:3] + argv[5:] + ["--config", str(cfg)])
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_spectrum_takes_only_chain_flags(capsys):
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--model", "xx", "--length", "4", "--initial-state", "e1"])
    assert info.value.code == 2
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


@pytest.mark.parametrize("out, fmt", [("o.json", "csv"), ("o.csv", "json"), ("o", "json")])
def test_a_format_contradicting_the_out_suffix_is_a_usage_error(out, fmt, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["rsn", "--out", str(tmp_path / out), "--format", fmt])
    assert info.value.code == 2
    assert f"argument --format: {fmt} contradicts --out" in capsys.readouterr().err
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
    with pytest.raises(SystemExit) as info:
        main(["rsn", "--config", str(cfg)])
    assert info.value.code == 2
    assert (f"rodeo-sched rsn: error: config key 'times' in {cfg} is a list, "
            "but --times takes none") in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, flag", [
    (["curve", "--model", "xx", "--t-min-mult", "-1"], None, "--t-min-mult"),
    (["curve", "--model", "xx", "--t-max-mult", "0"], None, "--t-max-mult"),
    (["schedule-fit", "--preset", "xi2", "--sweep", "--t-min-mult", "-1"], None, "--t-min-mult"),
    (["schedule-fit", "--preset", "xi2", "--sweep", "--t-max-mult", "inf"], None,
     "--t-max-mult"),
    (["product-function", "--alpha", "2", "--theta-min", "-1", "--theta-max", "100"], None,
     "--theta-min"),
    (["product-function", "--alpha", "2", "--theta-max", "nan"], None, "--theta-max"),
    (["decay-fit", "--alpha", "2", "--theta-min", "x"], None, "--theta-min"),
    (["decay-fit", "--alpha", "2"], {"theta_max": -1e4}, "--theta-max"),
    (["decay-fit", "--alpha", "2", "--windows", "-1"], None, "--windows"),
    (["decay-fit", "--alpha", "2", "--windows", "0"], None, "--windows"),
    (["decay-fit", "--alpha", "2", "--windows", "2.5"], None, "--windows"),
    (["decay-fit", "--alpha", "2"], {"windows": -1}, "--windows"),
    (["decay-fit", "--alpha", "2", "--n-terms", "-3"], None, "--n-terms"),
    (["product-function", "--alpha", "2", "--n-terms", "-1"], None, "--n-terms"),
    (["product-function", "--alpha", "2", "--theta-points", "0"], None, "--theta-points"),
    (["product-function", "--alpha", "2", "--theta-points", "-1"], None, "--theta-points"),
    (["curve", "--model", "xx", "--t-points", "0"], None, "--t-points"),
    (["curve", "--model", "xx"], {"t_points": 2.5}, "--t-points"),
    (["schedule-fit", "--preset", "xi2", "--sweep", "--t-points", "0"], None, "--t-points"),
    (["curve", "--model", "xx", "--rra-samples", "0"], None, "--rra-samples"),
    (["rsn", "--alpha", "2", "--total-time", "10", "--n-samples", "0"], None, "--n-samples"),
    (["optimize-times", "--n-samples", "-1"], None, "--n-samples"),
    (["optimize-times", "--budget", "0"], None, "--budget"),
    (["optimize-times", "--restarts", "0"], None, "--restarts"),
    (["optimize-alpha", "--n-samples", "0"], None, "--n-samples"),
    (["table1", "--n-samples", "2.5"], None, "--n-samples"),
    (["table1", "--budget", "-5"], None, "--budget"),
    (["table1", "--restarts", "0"], None, "--restarts"),
    (["curve", "--model", "xx", "--length", "4", "--n-samples", "0"], None, "--n-samples"),
    (["schedule-fit", "--preset", "xi2", "--sweep"], {"n_samples": 0}, "--n-samples"),
    (["schedule-fit", "--preset", "xi2", "--sweep", "--dt-mults", ""], None, "--dt-mults"),
    (["schedule-fit", "--preset", "xi2", "--sweep", "--dt-mults", "0"], None, "--dt-mults"),
    (["schedule-fit", "--preset", "xi2", "--sweep", "--dt-mults", "0.01,-0.1"], None,
     "--dt-mults"),
    (["schedule-fit", "--preset", "xi2", "--sweep", "--dt-mults", "0.01,x"], None, "--dt-mults"),
    (["optimize-times", "--tolerance", "2"], None, "--tolerance"),
    (["optimize-times", "--tolerance", "0"], None, "--tolerance"),
    (["table1", "--tolerance", "nan"], None, "--tolerance"),
    (["table1"], {"tolerance": 1}, "--tolerance"),
    (["rsn", "--alpha", "2", "--total-time", "-5"], None, "--total-time"),
    (["optimize-times", "--total-time", "0"], None, "--total-time"),
    (["optimize-alpha", "--band", "0.1", "1", "--total-time", "inf"], None, "--total-time"),
    (["schedule-fit", "--preset", "xi2", "--trotter-dt", "0.01"], {"total_time": -1},
     "--total-time"),
    (["optimize-times", "--t0-multiple", "-2"], None, "--t0-multiple"),
    (["optimize-alpha", "--band", "0.1", "1", "--t0-multiple", "nan"], None, "--t0-multiple"),
    (["optimize-alpha", "--band", "0.1", "1", "--t0-multiple", "0"], None, "--t0-multiple"),
    (["schedule-fit", "--preset", "xi2", "--trotter-dt", "0.01", "--t0-multiple", "-1"], None,
     "--t0-multiple"),
    (["schedule-fit", "--preset", "xi2", "--trotter-dt", "0"], None, "--trotter-dt"),
    (["schedule-fit", "--preset", "xi2", "--trotter-dt", "-0.01"], None, "--trotter-dt"),
    (["decay-fit", "--alpha", "1"], None, "--alpha"),
    (["decay-fit", "--alpha", "inf"], None, "--alpha"),
    (["product-function", "--alpha", "0.5"], None, "--alpha"),
    (["product-function"], {"alpha": "nan"}, "--alpha"),
    (["spectrum", "--model", "tfim", "--length", "4", "--field", "inf"], None, "--field"),
    (["curve", "--model", "xx", "--coupling", "nan"], None, "--coupling"),
    (["optimize-alpha", "--model", "tfim"], {"coupling": "-inf"}, "--coupling"),
    (["rsn", "--e-target", "nan"], None, "--e-target"),
    (["schedule-fit", "--preset", "xi2", "--e-target", "inf", "--trotter-dt", "0.01"], None,
     "--e-target"),
    (["rsn", "--alpha", "inf", "--total-time", "10"], None, "--alpha"),
    (["schedule-fit", "--preset", "xi2", "--trotter-dt", "0.01", "--alpha-min", "0.5"], None,
     "--alpha-min"),
    (["curve", "--model", "xx", "--alpha-cap", "inf"], None, "--alpha-cap"),
    (["product-function", "--alpha", "2", "--theta", "inf"], None, "--theta"),
])
def test_grid_bounds_must_be_positive(argv, config, flag, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    counts = ("--windows", "--theta-points", "--t-points", "--rra-samples", "--n-samples",
              "--budget", "--restarts")
    expected = ("a positive integer" if flag in counts else {
        "--n-terms": "a nonnegative integer", "--tolerance": "a number in (0, 1)",
        "--dt-mults": "a list of positive numbers", "--alpha-cap": "a number above 1",
        "--alpha": "a number of at least 1" if argv[0] == "rsn" else "a number above 1",
        "--alpha-min": "a number of at least 1", "--coupling": "a finite number",
        "--field": "a finite number", "--e-target": "a finite number",
        "--theta": "a finite number",
    }.get(flag, "a positive number"))
    assert f"error: argument {flag}: expected {expected}" in capsys.readouterr().err
