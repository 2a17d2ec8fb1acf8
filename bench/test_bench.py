"""Tests of the benchmark's own arithmetic, oracles and tracing.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import io
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
from run import tail  # noqa: E402
from rodeo_sched import (BandModel, ContinuousBand, HamiltonianSpec,  # noqa: E402
                         RodeoObjective, TimeSchedule, build_sector_hamiltonian,
                         eigendecompose, make_initial_state, rsn_closed_form,
                         rsn_quadrature, superiteration_schedule, trotter_round)


def _span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 4.0, 0),      # overlaps a: together they cover [1, 4]
        _span("c", 6.0, 7.0, 0),
        _span("d", 6.5, 6.75, 3),     # grandchild counts against c only
        _span("e", 9.5, 11.0, 0),     # runs past its parent: only [9.5, 10] counts
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10.0 - 3.0 - 1.0 - 0.5, 2.0, 2.0, 0.75, 0.25, 1.5])


def test_layer_metrics_sum_self_time_and_counts():
    spans = [
        _span("cli.main", 0.0, 5.0),
        _span("optimize.alpha", 0.5, 4.5, 0, {"evals": 10, "flat": 0}),
        _span("hamiltonians.value", 1.0, 2.0, 1, {"cols": 1, "level_cycles": 40}),
        _span("hamiltonians.value", 2.0, 3.5, 1, {"cols": 1, "level_cycles": 40}),
        _span("optimize.alpha", 4.5, 4.75, 0, {"evals": 6, "flat": 1}),
    ]
    m = tracing.layer_metrics(spans, tracing.self_times(spans))
    assert m["cli.self_s"] == pytest.approx(0.75)
    assert m["optimize.alpha_calls"] == 2
    assert m["optimize.alpha_self_s"] == pytest.approx(1.5 + 0.25)
    assert m["optimize.evals_per_point"] == pytest.approx(8.0)
    assert m["optimize.flat_count"] == 1
    assert m["hamiltonians.value_s"] == pytest.approx(2.5)
    assert m["hamiltonians.level_cycles"] == 80
    assert m["closed_form.batch_calls"] == 0
    assert tracing.check_layers(("hamiltonians",), m) == {
        "unexpected_calls": ["optimize.alpha"], "missing_calls": []}


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 31))          # 30 samples
    value, q = tail(values)
    assert value == 20 and sum(v > value for v in values) == 10
    assert q == pytest.approx(20 / 30)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 0.5)


def test_schedule_rebuilds_match_the_package():
    for alpha, total, dt in [(1.0, 7.0, 0.3), (1.3, 31.4, 0.0314), (1.9, 0.5, 0.01)]:
        mine = oracles.geometric_times(alpha, 100, total)
        theirs = superiteration_schedule(alpha, 100, total).times
        np.testing.assert_allclose(mine, theirs, rtol=1e-12)
        np.testing.assert_array_equal(oracles.trotter_floor(theirs, dt),
                                      trotter_round(TimeSchedule(times=theirs), dt).times)


@pytest.mark.parametrize("preset, density", [("xi2", "constant"), ("xi1", "gaussian")])
def test_gauss_legendre_matches_adaptive_quadrature(preset, density):
    band = ContinuousBand(0.0, 1.0, density=density)
    for alpha, mult, dt_mult in [(1.3, 1.0, 0.01), (1.1, 10.0, 0.05), (1.6, 3.0, 0.01)]:
        times = oracles.trotter_floor(
            oracles.geometric_times(alpha, 100, mult * math.pi), dt_mult * math.pi)
        quad = rsn_quadrature(band, -1.0, TimeSchedule(times=times), abs_tol=1e-14)
        gl = oracles.gauss_legendre_residuals(oracles.band_density(preset), 0.0, 1.0,
                                              -1.0, times)[0]
        assert gl == pytest.approx(quad, rel=1e-10)


def test_gauss_legendre_matches_the_closed_form_band():
    rng = np.random.default_rng(5)
    for _ in range(5):
        times = rng.uniform(0.5, 30.0, size=int(rng.integers(1, 9)))
        closed = rsn_closed_form(BandModel(0.1, 1.0), TimeSchedule(times=times))
        gl = oracles.gauss_legendre_residuals(lambda e: np.full_like(e, 2.0), 0.1, 1.0,
                                              0.0, times)[0]
        assert gl == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("model, field, state", [("xx", 1.0, "e1"), ("tfim", 1.0, "plus"),
                                                 ("tfim", 3.0, "plus")])
def test_log_space_reference_matches_the_package(model, field, state):
    ref = oracles.ChainReference(model, 10, field, state)
    spec = HamiltonianSpec(model=model, length=10, field=field)
    eig = eigendecompose(build_sector_hamiltonian(spec))
    psi = (make_initial_state(spec, "basis_index", basis_index=1) if state == "e1"
           else make_initial_state(spec, "plus_projected"))
    objective = RodeoObjective(eig, psi, float(eig.eigenvalues[0]))
    assert ref.sector_dim == eig.sector_dim and ref.levels < ref.sector_dim
    for alpha, mult in [(2.0, 1.0), (1.5, 5.0), (1.2, 20.0), (1.05, 50.0)]:
        times = oracles.geometric_times(alpha, 100, mult * ref.t0)
        value = objective.value(times)
        assert value > 1e-290
        assert 10.0 ** ref.log10_infidelity(times)[0] == pytest.approx(value, rel=1e-9)


def test_log_space_reference_resolves_underflow():
    ref = oracles.ChainReference("xx", 10, 1.0, "e1")
    log_true, gap = oracles.chain_gap_dex(ref, 1.001, 1000, 1000 * ref.t0)
    assert math.isfinite(log_true) and log_true < -300
    assert gap > 0


def _run_quietly(cli, argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_tracing_reaches_every_lookup_site_and_restores_it():
    from rodeo_sched import cli

    tracer = tracing.Tracer()
    commands = [
        ["optimize-times", "--n-samples", "3", "--budget", "80", "--restarts", "2"],
        ["optimize-alpha", "--band", "0.1", "1.0", "--n-samples", "4"],
        ["optimize-alpha", "--model", "xx", "--length", "4", "--n-samples", "5"],
        ["curve", "--model", "tfim", "--length", "4", "--n-samples", "5",
         "--t-points", "2", "--rra-samples", "3"],
        ["schedule-fit", "--preset", "xi2", "--n-samples", "10", "--total-time", "3",
         "--trotter-dt", "0.1"],
        ["decay-fit", "--alpha", "2", "--theta-max", "1e3", "--windows", "20"],
    ]
    with tracing.traced(tracer):
        for argv in commands:
            code = tracer.call("cli.main", _run_quietly, (cli, argv), {})
            assert code in (0, 1)
    names = {span[0] for span in tracer.spans}
    wanted = {"closed_form.batch", "closed_form.scalar", "optimize.times", "optimize.alpha",
              "optimize.curve", "hamiltonians.build", "hamiltonians.eigh",
              "hamiltonians.value", "hamiltonians.batch", "schedules.superiteration",
              "schedules.trotter", "spectral.rsn", "spectral.survival",
              "quadrature.integrate", "asymptotics.product", "asymptotics.fit"}
    assert wanted <= names
    m = tracing.layer_metrics(tracer.spans, tracing.self_times(tracer.spans))
    assert m["optimize.alpha_evals"] > m["optimize.alpha_calls"] > 0
    assert m["quadrature.panels"] >= m["quadrature.calls"] > 0
    for module in tracing._package_modules():
        for value in vars(module).values():
            assert not hasattr(value, "__wrapped__") or value.__module__ != "tracing"
    assert not hasattr(RodeoObjective.value, "__wrapped__")
