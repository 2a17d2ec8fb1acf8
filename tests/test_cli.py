"""Command-line interface: outputs, manifests, config files, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rodeo_sched import (HamiltonianSpec, RodeoObjective, build_sector_hamiltonian,
                         eigendecompose, make_initial_state, superiteration_schedule)
from rodeo_sched.cli import main


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


def test_entry_point_version():
    # The child interpreter does not see pytest's pythonpath setting, so
    # it is given the checkout's src directory explicitly.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "rodeo_sched.cli", "--version"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0
    assert res.stdout.strip() == "0.1.0"


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
