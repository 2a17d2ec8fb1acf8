"""Command-line interface: outputs, manifests, config files, exit codes."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rodeo_sched import (HamiltonianSpec, RodeoObjective, build_sector_hamiltonian,
                         eigendecompose, make_initial_state, superiteration_schedule)
from rodeo_sched.cli import build_parser, main
from rodeo_sched.quadrature import ABS_TOL

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
# ratio search gave them before it reused any integral.
SWEEP_PINS = [
    ("1.9621967033631071", "0.9879755799374728"),
    ("1.9822392058198646", "0.6706716002528976"),
    ("1.6253967452802456", "0.004211951766176197"),
    ("1.1108737929292223", "2.2148106857685716e-11"),
    ("1.9621967033631071", "0.9999999999999969"),
    ("1.7571204344346893", "0.7359031617695629"),
    ("1.5906523729598905", "0.005388188021892764"),
    ("1.111107995198585", "8.602309452521381e-11"),
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
        singles = [m.tobytes() for m in fit if m.shape[1] == 1]
        assert len(set(singles)) == len(singles)
        for m in fit:
            if m.shape[1] > 1:
                assert len({col.tobytes() for col in m.T}) == m.shape[1]
    counts = doc["manifest"]["diagnostics"]
    assert counts["schedules_integrated"] == sum(m.shape[1] for fit in calls for m in fit)
    assert counts["schedules_integrated"] < counts["schedules_scored"]


def test_flat_trotter_grid_keeps_its_batch_value(capsys):
    # Every ratio floors to the empty schedule: the reported zeta is the
    # grid's first value, from a batch of 240 equal columns.
    code, doc = _run_json(["schedule-fit", "--preset", "xi1", "--n-samples", "100",
                           "--t0-multiple", "0.1", "--trotter-dt", "0.25"], capsys)
    assert code == 0
    assert doc["result"]["flat"] and doc["result"]["surviving_times"] == 0
    assert repr(doc["result"]["zeta"]) == "0.9999999999999969"


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


def test_curve_raw_fidelity_is_surviving_target_weight(capsys):
    code, doc = _run_json(["curve", "--model", "xx", "--length", "6", "--n-samples", "20",
                           "--t-points", "3", "--t-min-mult", "0.5", "--t-max-mult", "5",
                           "--alphas", "2.0,1.5", "--skip-rra", "--raw-fidelity"], capsys)
    assert code == 0
    res = doc["result"]
    spec = HamiltonianSpec(model="xx", length=6)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    obj = RodeoObjective(eig, make_initial_state(spec, "basis_index", basis_index=1),
                         float(eig.eigenvalues[0]))

    def raw(alpha, total):
        return obj.result(superiteration_schedule(alpha, 20, total)).target_weight

    columns = [key for key in res if key.startswith("fidelity_alpha_")]
    assert columns == ["fidelity_alpha_1.5", "fidelity_alpha_2"]
    for i, total in enumerate(res["t_grid"]):
        for key in columns:
            assert res[key][i] == raw(float(key[len("fidelity_alpha_"):]), total)
        assert res["fidelity_adaptive"][i] == raw(res["alpha_opt"][i], total)


def test_inverted_band_is_an_error(capsys):
    assert main(["rsn", "--band", "0.5", "0.1"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["optimize-alpha", "--band", "0.1", "1", "--total-time", "0"],
    ["rsn", "--alpha", "0", "--total-time", "5"],
])
def test_zero_is_a_given_value_not_an_absent_one(argv, capsys):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


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
    assert "not allowed with config key" in capsys.readouterr().err


def test_readme_command_lines_parse():
    # every example command line, continuation lines joined; the
    # "rodeo-sched <command> [flags]" synopsis is not a command line
    text = README.read_text().replace("\\\n", " ")
    commands = [line for line in text.splitlines()
                if line.startswith("rodeo-sched ") and "<command>" not in line]
    assert commands
    parser, _ = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_optimized_schedule_file_round_trips_through_rsn(tmp_path, capsys, fmt):
    # exit code 1 only flags restarts that disagree; the outputs stand
    argv = ["optimize-times", "--n-samples", "3", "--budget", "200", "--restarts", "2"]
    out = tmp_path / f"opt.{fmt}"
    assert main(argv + ["--out", str(out), "--format", fmt]) in (0, 1)
    _, doc = _run_json(argv, capsys)
    code, back = _run_json(["rsn", "--schedule-file", str(out)], capsys)
    assert code == 0
    assert back["result"]["zeta_quadrature"] == doc["result"]["zeta"]
    np.testing.assert_allclose(back["result"]["zeta_closed_form"], doc["result"]["zeta"],
                               rtol=1e-10)
