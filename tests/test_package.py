"""The package's public namespace."""

import sys
from pathlib import Path

import pytest

import rodeo_sched
import rodeo_sched.hamiltonians

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


def test_star_import_resolves_every_public_name_once():
    # a stale __all__ entry makes the star import itself raise
    namespace: dict = {}
    exec("from rodeo_sched import *", namespace)
    names = rodeo_sched.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if name not in namespace] == []


def test_every_name_the_benchmark_traces_resolves_and_is_restored():
    # bench/tracing.py looks each traced function and method up by name;
    # a rename in the package breaks `bench/run.py --trace 1`.
    def lookups():
        functions = {(home, name): getattr(sys.modules[f"rodeo_sched.{home}"], name)
                     for home, name, _ in tracing.FUNCTIONS}
        methods = {(cls, name): getattr(rodeo_sched.hamiltonians, cls).__dict__[name]
                   for cls, name, _, _ in tracing.METHODS}
        return {**functions, **methods}

    before = lookups()
    with tracing.traced(tracing.Tracer()):
        during = lookups()
    assert {key: fn.__wrapped__ for key, fn in during.items()} == before
    assert lookups() == before


@pytest.mark.parametrize("argv", [
    ["schedule-fit", "--preset", "xi2", "--sweep", "--n-samples", "30", "--t-points", "2",
     "--dt-mults", "0.01"],
    ["curve", "--model", "xx", "--length", "6", "--n-samples", "30", "--t-points", "2",
     "--skip-rra"],
    ["optimize-alpha", "--band", "0.1", "1.0", "--n-samples", "10"],
])
def test_traced_ratio_searches_run(argv, tmp_path):
    # `bench/run.py --trace 1` runs every job under tracing, whose wrappers
    # read the searches' results (optimize_alpha's .flat, the curve's length)
    from rodeo_sched.cli import main

    with tracing.traced(tracing.Tracer()) as tracer:
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    assert tracer.spans
