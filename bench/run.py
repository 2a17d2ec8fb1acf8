"""Benchmark of the rodeo-sched command line.

Run from the repository root:

    python3 bench/run.py --workload chain-curve --seed 1 --seconds 20 --trace 0

One process is one closed-loop client: it runs the workload's job list
(``rodeo_sched.cli.main(argv)`` in-process, one job at a time, each
starting when the previous one returns) again and again until
``--seconds`` have passed (to the nearest whole pass), then checks every output against the
oracles in ``workloads.py``.

BLAS runs on one thread (``OPENBLAS_NUM_THREADS`` and its siblings
default to 1), so the client has no threads of its own. On the 2-core
reference machine OpenBLAS's default two threads made the closed-form
jobs about 1.7 times slower and their times more spread.

wall_s and job_s are calibrated. Between jobs, outside the job timings,
the client times a few rounds of a fixed numpy kernel shaped like the
workload's hot loop (``Workload.calibration``). Each job's raw time is
scaled by the kernel's reference round duration over the mean of the
median rounds just before and just after it: seconds on the reference
machine of CALIBRATION_KERNELS. The shared machine's speed drifts by
tens of percent within seconds; the scaling keeps one program's figures
steady. setup_s is the median of probes in fresh interpreters, spread
over the run and scaled by the run's own speed factor, calibrated over
raw job time: a probe is too short to calibrate alone, but over minutes
import time drifts with the jobs. Raw times and calibration rounds are
in the run record.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half
the time untraced and half with every package-module call wrapped in a
span (``tracing.py``), and reports the per-layer metrics plus the
tracing overhead. The last stdout line is the result object; the line
before it is the run record (machine, versions, quality figures,
sample counts). Job outputs, records and spans go under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr
from pathlib import Path
from typing import NamedTuple

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # Must precede the numpy import; see "BLAS runs on one thread" above.
    for _var in BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# Calibration rounds between jobs.
CALIBRATION_ROUNDS = 4


def _use_checkout_source() -> None:
    if not (SRC / "rodeo_sched" / "__init__.py").is_file():
        sys.exit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))


def _job_argvs(workload, seed: int, out_dir: Path) -> list:
    return [list(argv) + ["--seed", str(seed), "--out", str(out_dir / f"job{i}.json"),
                          "--format", "json"]
            for i, argv in enumerate(workload.jobs)]


def _setup_probe(name: str, seed: int) -> None:
    """Child side of setup_s: import everything, build the jobs, report."""
    import scipy  # noqa: F401
    from rodeo_sched import cli  # noqa: F401

    _job_argvs(WORKLOADS[name], seed, OUT_DIR)
    print(time.monotonic())


def _dispatch_round() -> None:
    """Many small numpy calls, like the ratio scans and per-cycle loops."""
    x = np.linspace(0.0, 10.0, 512)
    acc = np.ones_like(x)
    for t in np.linspace(0.1, 3.0, 600):
        acc *= np.cos(0.5 * x * t) ** 2
    y = np.linspace(0.0, 1.0, 1 << 17)
    for _ in range(6):
        y = np.sin(y) * 0.5 + y * 0.5


def _stream_round() -> None:
    """Elementwise passes over 8 MB arrays, like the closed-form sinc sums."""
    x = np.linspace(-50.0, 50.0, 1 << 20)
    near = np.abs(x) < 1e-4
    safe = np.where(near, 1.0, x)
    np.where(near, 1.0 - x * x / 6.0, np.sin(safe) / safe)


# Kernel and its round's duration on the reference machine (2-core
# x86-64 VM, Python 3.11, numpy 2.4); see speed_factor.
CALIBRATION_KERNELS = {"dispatch": (_dispatch_round, 0.022),
                       "stream": (_stream_round, 0.040)}


def calibration_round(kernel: str) -> float:
    start = time.perf_counter()
    CALIBRATION_KERNELS[kernel][0]()
    return time.perf_counter() - start


def setup_probe(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first job being ready."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"error: setup probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - start


def calibrate(kernel: str) -> list:
    return [calibration_round(kernel) for _ in range(CALIBRATION_ROUNDS)]


def run_job(call, argv) -> tuple:
    """(seconds, (exit code, exception, stderr)) of one job."""
    err = io.StringIO()
    t = time.perf_counter()
    try:
        with redirect_stderr(err):
            code, raised = call(argv), None
    except (Exception, SystemExit) as exc:
        code, raised = None, exc
    return time.perf_counter() - t, (code, raised, err.getvalue())


def collect(argvs: list) -> tuple:
    """Read back and delete each job's output: (documents, bytes written).

    A document is None when the file is missing or holds no JSON object
    with a ``result`` entry.
    """
    docs, size = [], 0
    for argv in argvs:
        path = Path(argv[argv.index("--out") + 1])
        doc = None
        if path.is_file():
            size += path.stat().st_size
            try:
                with open(path) as fh:
                    doc = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError):
                pass
            path.unlink()
        docs.append(doc if isinstance(doc, dict) and "result" in doc else None)
    return docs, size


def judge(outcome, doc) -> str | None:
    """Why one job execution failed, or None if it completed."""
    code, raised, stderr = outcome
    if raised is not None:
        return f"raised {type(raised).__name__}: {raised}"
    if "error:" in stderr:
        return stderr.strip().splitlines()[-1]
    if doc is None:
        return "wrote no readable output"
    if code == 0:
        return None
    if code == 1 and doc["result"].get("converged") is False:
        return None  # a search that ran its budget without converging
    return f"exit code {code}"


class Pass(NamedTuple):
    """One run of the job list and what it left behind."""

    job_s: list          # raw seconds per job
    outcomes: list       # (exit code, exception, stderr) per job
    docs: list           # output document per job, None if absent
    bytes_out: int       # size of the output files
    calibration: list    # per job, the calibration rounds (before, after) it

    @property
    def wall(self) -> float:
        return sum(self.job_s)


def measure(argvs: list, budget: float, call, kernel: str, probe=None, probes: int = 0):
    """Passes over the job list for ``budget`` seconds, rounded to the
    nearest whole pass: (passes, setup probe seconds).

    Calibration rounds run between jobs, outside the job timings; the
    rounds after one job are the rounds before the next. ``probe`` (a
    setup_s measurement) runs ``probes`` times, spread evenly over the
    budget so the probes meet the same machine states as the jobs; their
    time does not count against the budget.
    """
    passes, setup = [], []
    start, probe_s = time.perf_counter(), 0.0
    rounds = calibrate(kernel)

    def spent():
        return time.perf_counter() - start - probe_s

    def probe_due():
        return len(setup) < probes and spent() >= len(setup) * budget / probes

    def another_pass():
        # Stop once the rest of the budget is under half a mean pass.
        return not passes or budget - spent() >= 0.5 * spent() / len(passes)

    while another_pass():
        seconds, outcomes, calibration = [], [], []
        for argv in argvs:
            if probe_due():
                t = time.perf_counter()
                setup.append(probe())
                rounds = calibrate(kernel)
                probe_s += time.perf_counter() - t
            before = rounds
            job_s, outcome = run_job(call, argv)
            rounds = calibrate(kernel)
            seconds.append(job_s)
            outcomes.append(outcome)
            calibration.append((before, rounds))
        docs, size = collect(argvs)
        passes.append(Pass(seconds, outcomes, docs, size, calibration))
    while len(setup) < probes:
        setup.append(probe())
    return passes, setup


def speed_factor(kernel: str, before: list, after: list) -> float:
    """Reference duration of a round over the job's calibration rounds.

    The shared machine's speed drifts by tens of percent within seconds.
    The rounds just before and just after a job sample the speed it ran
    at; its time multiplied by this factor reads as seconds on the
    reference machine, so the drift cancels. Raw times stay in the record.
    """
    ref = CALIBRATION_KERNELS[kernel][1]
    return ref / (0.5 * (statistics.median(before) + statistics.median(after)))


def calibrated(passes: list, kernel: str) -> tuple:
    """(pass walls, job seconds), each job scaled by its own speed factor."""
    per_pass = [[t * speed_factor(kernel, *rounds) for t, rounds in zip(p.job_s, p.calibration)]
                for p in passes]
    return [sum(jobs) for jobs in per_pass], [t for jobs in per_pass for t in jobs]


def tail(values: list) -> tuple:
    """(value, quantile) of the highest-ranked sample with ten samples above
    it; with fewer than 21 samples no such sample lies above the median,
    and the median is reported."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], (n - 10) / n
    return statistics.median(ordered), 0.5


def grade(workload, passes: list) -> tuple:
    """Failures per execution and quality figures, from all passes' outputs."""
    n_jobs = len(workload.jobs)
    reasons = [[judge(o, d) for o, d in zip(p.outcomes, p.docs)] for p in passes]
    reference = [None] * n_jobs
    for pass_reasons, p in zip(reasons, passes):
        for j in range(n_jobs):
            if reference[j] is None and pass_reasons[j] is None:
                reference[j] = p.docs[j]
    quality, oracle_errors = {}, [[] for _ in range(n_jobs)]
    if all(doc is not None for doc in reference):
        try:
            oracle_errors, quality = workload.check(workload.jobs, reference)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            why = f"output not in the expected form: {type(exc).__name__}: {exc}"
            oracle_errors = [[why]] * n_jobs
    failures = []
    for k, (pass_reasons, p) in enumerate(zip(reasons, passes)):
        for j in range(n_jobs):
            why = pass_reasons[j]
            if why is None and p.docs[j]["result"] != reference[j]["result"]:
                why = "result differs from the first completed run of this job"
            if why is None and oracle_errors[j]:
                why = "; ".join(oracle_errors[j])
            if why is not None:
                failures.append({"pass": k, "job": " ".join(workload.jobs[j]), "why": why})
    return failures, quality


def machine(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "seed": seed,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(workload, passes, traced, tracer, bounds, record) -> dict:
    """Per-layer metrics: the median over traced passes of each pass's
    counts and self times (raw seconds), plus the tracing overhead."""
    selfs = tracing.self_times(tracer.spans)
    n_jobs, per_pass = len(workload.jobs), []
    for k, p in enumerate(traced):
        first, last = bounds[k * n_jobs][0], bounds[(k + 1) * n_jobs - 1][1]
        layer = tracing.layer_metrics(tracer.spans[first:last], selfs[first:last])
        layer["cli.bytes_out"] = p.bytes_out
        per_pass.append(layer)
    layers = tracing.median_metrics(per_pass)
    layers["harness.trace_overhead_s"] = (
        statistics.median(calibrated(traced, workload.calibration)[0])
        - statistics.median(calibrated(passes, workload.calibration)[0]))
    record["traced_runs"] = len(traced)
    record["layer_check"] = tracing.check_layers(workload.layers, layers)
    return {k: _metric(v, tracing.unit(k)) for k, v in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_checkout_source()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    workload = WORKLOADS[args.workload]
    from rodeo_sched import cli

    OUT_DIR.mkdir(exist_ok=True)
    job_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        argvs = _job_argvs(workload, args.seed, job_dir)
        # A traced run reports no setup_s and spends half its time traced.
        untraced_budget = args.seconds / 2 if args.trace else args.seconds
        passes, setup = measure(argvs, untraced_budget, cli.main, workload.calibration,
                                lambda: setup_probe(args.workload, args.seed),
                                0 if args.trace else SETUP_PROBES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced, tracer, bounds = [], tracing.Tracer(), []
        if args.trace:
            with tracing.traced(tracer):
                def call(job_argv):
                    first = len(tracer.spans)
                    try:
                        return tracer.call("cli.main", cli.main, (job_argv,), {})
                    finally:
                        bounds.append((first, len(tracer.spans)))
                traced, _ = measure(argvs, args.seconds / 2, call, workload.calibration)
        grade_start = time.perf_counter()
        failures, quality = grade(workload, passes + traced)
        grade_s = time.perf_counter() - grade_start
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)

    walls, job_s = calibrated(passes, workload.calibration)
    wall_tail, wall_q = tail(walls)
    job_tail, job_q = tail(job_s)
    attempted = len(workload.jobs) * (len(passes) + len(traced))
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(args.seed),
        "calibration_s": [p.calibration for p in passes],
        "wall_s": {"median": statistics.median(walls), "tail": wall_tail,
                   "tail_quantile": wall_q, "runs": len(walls),
                   "raw": [p.wall for p in passes]},
        "job_s": {"p50": statistics.median(job_s), "tail": job_tail,
                  "tail_quantile": job_q, "samples": len(job_s),
                  "raw": [t for p in passes for t in p.job_s]},
        "peak_rss_mb": peak_rss_mb,
        "grade_s": grade_s,
        "error_rate": _metric(len(failures) / attempted, "share"),
        "quality": {k: _metric(v, "ratio" if k == "zeta_vs_table" else "dex")
                    for k, v in quality.items()},
        "failures": failures,
    }

    if args.trace:
        metrics = _layer_metrics(workload, passes, traced, tracer, bounds, record)
        with open(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    else:
        speed = sum(walls) / sum(p.wall for p in passes)
        setup_s = [t * speed for t in setup]
        record["setup_s"] = {"median": statistics.median(setup_s), "raw": setup,
                             "speed_factor": speed}
        # job_s.tail stays in the record: with 20 or fewer job samples a
        # run has no sample with ten above it beyond the median.
        metrics = {
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "job_s.p50": _metric(statistics.median(job_s), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }

    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1)
    for problem, names in record.get("layer_check", {}).items():
        if names:
            print(f"layer check: {problem}: {', '.join(names)}", file=sys.stderr)
    for failure in failures[:10]:
        print(f"failed: {failure['job']}: {failure['why']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
