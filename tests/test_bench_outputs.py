"""The benchmark's job outputs, pinned bit for bit.

Every job of ``bench/workloads.py`` runs through ``cli.main`` at seed 1,
in one fresh interpreter with BLAS on one thread as the benchmark runs
it (the chain jobs' eigendecompositions round differently on more
threads). Each job's ``result`` and manifest hash must equal the pins in
``bench_outputs.json`` exactly; wall time and diagnostics are left out.
A change that moves a benchmark output on purpose re-pins it with

    PYTHONPATH=src python tests/test_bench_outputs.py

which prints each moved value (path, old -> new, relative change) before
it writes the pins, for the change to list. The pins hold for the numpy
and scipy versions stored beside them, and for the SIMD extensions that
numpy's CPU dispatch found (``np.show_runtime()``'s "found" list): the
survival kernel's ``np.tan`` takes a vectorized loop on some of them and
libm's on others. Other versions or machines may round differently.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from conftest import BLAS_THREAD_VARS, _simd_found

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PINS = Path(__file__).resolve().parent / "bench_outputs.json"
SEED = 1


def _workload_jobs() -> dict:
    """{"workload/index": command line} of every benchmark job, read from
    bench/workloads.py (which imports its sibling oracles.py)."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("_bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return {f"{name}/{i}": " ".join(argv)
            for name, workload in module.WORKLOADS.items()
            for i, argv in enumerate(workload.jobs)}


def _run_jobs(path: Path) -> None:
    """Run every job in this process and write {key: {argv, hash, result}}
    to ``path``."""
    from rodeo_sched.cli import main

    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "job.json"
        for key, line in _workload_jobs().items():
            main(line.split() + ["--seed", str(SEED), "--out", str(out), "--format", "json"])
            doc = json.loads(out.read_text())
            outputs[key] = {"argv": line, "hash": doc["manifest"]["hash"],
                            "result": doc["result"]}
    path.write_text(json.dumps(outputs))


def _job_outputs(tmp: Path) -> dict:
    """Every job's pinned fields, from a fresh interpreter on one BLAS thread."""
    path = tmp / "outputs.json"
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, __file__, "--run", str(path)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(path.read_text())


def _text(result) -> str:
    return json.dumps(result, sort_keys=True)


def _moved(old, new, path=""):
    """(path, old, new) of every leaf that differs between two pin
    documents; a key on one side only is None on the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _moved(old.get(key), new.get(key), f"{path}/{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _moved(a, b, f"{path}[{i}]")
    elif _text(old) != _text(new):
        yield path, old, new


def _print_moved(old, new) -> None:
    """Print each moved leaf as path, old -> new and, for numbers, the
    relative change."""
    moved = list(_moved(old, new))
    for path, a, b in moved:
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        change = f"  ({(b - a) / abs(a):+.3e} relative)" if numbers and a else ""
        print(f"{path}: {a!r} -> {b!r}{change}")
    print(f"{len(moved)} pinned values moved")


PINNED = json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _job_outputs(tmp_path_factory.mktemp("bench_outputs"))


def test_the_pins_cover_every_benchmark_job():
    assert sorted(_workload_jobs()) == sorted(PINNED["jobs"])


@pytest.mark.parametrize("key", sorted(PINNED["jobs"]))
def test_benchmark_job_output_is_pinned(key, outputs):
    pin, got = PINNED["jobs"][key], outputs[key]
    assert got["argv"] == pin["argv"], f"{key}: the job changed; re-pin"
    versions = (f"pinned with numpy {PINNED['numpy']}, scipy {PINNED['scipy']}, "
                f"SIMD {PINNED['simd']}; running numpy {np.__version__}, "
                f"scipy {scipy.__version__}, SIMD {_simd_found()}")
    assert got["hash"] == pin["hash"], f"{key}: manifest hash moved ({versions})"
    # Compared as JSON text, so that -0.0 and nan count bit for bit too.
    moved = "; ".join(f"{path}: {a!r} -> {b!r}"
                      for path, a, b in _moved(pin["result"], got["result"]))
    assert _text(got["result"]) == _text(pin["result"]), (
        f"{key}: result moved ({versions}): {moved}")


# RodeoObjective's work on the benchmark's chain jobs, exact: (calls,
# columns scored, one-column calls). chain-curve/1 is a --monotone curve,
# whose searches run one after another, so each refinement step is a call
# of its own; long-horizon/0 is one search, one grid call and 11 steps.
# Both curves add one call for the adaptive fidelities.
WORK_PINS = {"chain-curve/0": (23, 1495, 4), "chain-curve/1": (54, 1807, 43),
             "long-horizon/0": (12, 251, 11)}

# The ratio searches' counts on the benchmark's search jobs, exact:
# (grid calls, refinement calls, parabolic steps, golden steps, bound
# tests, flat searches). chain-curve/0's three short-time searches and
# each trotter-sweep fit's 0.1 T0 search end on the upper bound after its
# test; a Trotter objective is piecewise constant in the ratio, so its
# searches take golden steps mostly.
SEARCH_PINS = {"chain-curve/0": (5, 13, 17, 5, 3, 0), "chain-curve/1": (6, 43, 32, 10, 1, 0),
               "long-horizon/0": (1, 11, 6, 5, 0, 0),
               "trotter-sweep/0": (20, 47, 34, 367, 5, 0),
               "trotter-sweep/1": (20, 47, 34, 370, 5, 0)}


def _diagnostics(key: str, tmp_path: Path) -> dict:
    """The manifest diagnostics of benchmark job ``key`` run at SEED."""
    from rodeo_sched.cli import main

    out = tmp_path / "job.json"
    assert main(_workload_jobs()[key].split() + ["--seed", str(SEED), "--out", str(out)]) == 0
    return json.loads(out.read_text())["manifest"]["diagnostics"]


@pytest.mark.parametrize("key", sorted(WORK_PINS))
def test_the_chain_jobs_report_their_objective_work(key, tmp_path):
    work = _diagnostics(key, tmp_path)
    assert (work["objective_calls"], work["schedules_scored"],
            work["one_column_calls"]) == WORK_PINS[key]


@pytest.mark.parametrize("key", sorted(SEARCH_PINS))
def test_the_search_jobs_report_their_search_counts(key, tmp_path):
    from rodeo_sched.optimize import SEARCH_COUNTS

    counts = _diagnostics(key, tmp_path)["ratio_search"]
    assert tuple(counts[name] for name in SEARCH_COUNTS) == SEARCH_PINS[key]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        _run_jobs(Path(sys.argv[2]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            jobs = _job_outputs(Path(tmp))
        pins = {"numpy": np.__version__, "scipy": scipy.__version__,
                "simd": _simd_found(), "seed": SEED, "jobs": jobs}
        _print_moved(PINNED, pins)
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
