"""Spans around calls into the package's modules, recorded from outside.

``traced(tracer)`` swaps each public function below for a wrapper in
every ``rodeo_sched`` namespace that holds it. Modules import names
directly (``from .closed_form import rsn_closed_form_batch``), so
patching only the defining module would miss calls made through the
importing one. ``RodeoObjective`` methods are patched on the class.

A span is ``[name, start, end, parent, attrs]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span
(-1 at top level). Spans stay in memory; the harness writes them out.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time

import numpy as np

PHASE_BUDGET = math.pi / 4   # initial panel sizing of integrate_oscillatory
KRONROD_POINTS = 15          # integrand points per evaluated panel


class Tracer:
    """Span recorder; ``sector_dim`` is the dimension of the last eigensolve."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.sector_dim = 0

    def call(self, name, fn, args, kwargs, measure=None):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            span[2] = time.perf_counter()
            span[4] = {"failed": 1}
            raise
        finally:
            self._stack.pop()
        span[2] = time.perf_counter()
        if measure is not None:
            span[4] = measure(args, kwargs, result)
        return result


class _CountingObjective:
    """The objective handed to a ratio search, counting evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, schedule):
        self.count += 1
        return self.fn(schedule)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _sinc_terms(n: int, columns: int) -> int:
    # Half of the 3**n sign configurations plus the all-zero row, each
    # evaluated at both band edges.
    return (3 ** n + 1) // 2 * 2 * columns


def _closed_form_batch(args, kwargs, result):
    tm = _arg(args, kwargs, 1, "times_matrix")
    return {"cols": tm.shape[1], "sinc": _sinc_terms(tm.shape[0], tm.shape[1])}


def _closed_form_scalar(args, kwargs, result):
    schedule = _arg(args, kwargs, 1, "schedule")
    return {"sinc": _sinc_terms(len(schedule.canonical()), 1)}


def _times_result(args, kwargs, result):
    return {"evals": result.evaluations_used, "converged": int(result.converged)}


def _product_terms(args, kwargs, result):
    alpha = _arg(args, kwargs, 0, "alpha")
    theta = np.asarray(_arg(args, kwargs, 1, "theta"), dtype=float)
    n_terms = args[2] if len(args) > 2 else kwargs.get("n_terms")
    if n_terms is None:
        # The infinite-product truncation: stop once the factor argument
        # (alpha - 1) theta / alpha**n falls below 1e-10.
        scale = (alpha - 1.0) * (float(np.abs(theta).max()) if theta.size else 0.0)
        n_terms = 1 if scale <= 1e-10 else max(
            1, math.ceil(math.log(scale / 1e-10) / math.log(alpha)))
    return {"terms": theta.size * int(n_terms)}


def _survival_points(args, kwargs, result):
    schedule = _arg(args, kwargs, 2, "schedule")
    return {"points": result.size * len(schedule)}


def _wrap(tracer, name, fn, measure=None):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, measure)
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_alpha(tracer, fn):
    def wrapper(objective, *args, **kwargs):
        counting = _CountingObjective(objective)

        def measure(_args, _kwargs, result):
            return {"evals": counting.count, "flat": int(result.flat)}
        return tracer.call("optimize.alpha", fn, (counting,) + args, kwargs, measure)
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_integrate(tracer, fn):
    def wrapper(func, lo, hi, *args, **kwargs):
        points = [0]

        def counted(e):
            points[0] += len(e)
            return func(e)

        def measure(_args, _kwargs, result):
            rate = abs(kwargs.get("phase_rate", 0.0))
            initial = max(1, math.ceil((hi - lo) * rate / PHASE_BUDGET))
            initial = min(initial, kwargs.get("max_panels", 200_000))
            return {"panels": points[0] // KRONROD_POINTS, "initial": initial,
                    "err": float(result[1])}
        return tracer.call("quadrature.integrate", fn, (counted, lo, hi) + args,
                           kwargs, measure)
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_eigh(tracer, fn):
    def measure(args, kwargs, result):
        tracer.sector_dim = int(result.sector_dim)
        return {"dim": tracer.sector_dim}
    return _wrap(tracer, "hamiltonians.eigh", fn, measure)


def _wrap_method(tracer, name, fn, shape):
    def measure(args, kwargs, result):
        cycles, cols = shape(args[1] if len(args) > 1 else next(iter(kwargs.values())))
        return {"cols": cols, "level_cycles": tracer.sector_dim * cycles * cols}
    return _wrap(tracer, name, fn, measure)


def _value_shape(times):
    return len(times), 1


def _batch_shape(times_matrix):
    return times_matrix.shape[0], times_matrix.shape[1]


# (defining module, function name, wrapper factory)
FUNCTIONS = (
    ("closed_form", "rsn_closed_form_batch",
     lambda t, f: _wrap(t, "closed_form.batch", f, _closed_form_batch)),
    ("closed_form", "rsn_closed_form",
     lambda t, f: _wrap(t, "closed_form.scalar", f, _closed_form_scalar)),
    ("optimize", "optimize_times",
     lambda t, f: _wrap(t, "optimize.times", f, _times_result)),
    ("optimize", "optimize_alpha", _wrap_alpha),
    ("optimize", "adaptive_alpha_curve",
     lambda t, f: _wrap(t, "optimize.curve", f,
                        lambda a, k, r: {"points": len(r)})),
    ("hamiltonians", "build_sector_hamiltonian",
     lambda t, f: _wrap(t, "hamiltonians.build", f)),
    ("hamiltonians", "eigendecompose", _wrap_eigh),
    ("schedules", "superiteration_schedule",
     lambda t, f: _wrap(t, "schedules.superiteration", f)),
    ("schedules", "trotter_round", lambda t, f: _wrap(t, "schedules.trotter", f)),
    ("spectral", "rsn_quadrature", lambda t, f: _wrap(t, "spectral.rsn", f)),
    ("spectral", "survival_product",
     lambda t, f: _wrap(t, "spectral.survival", f, _survival_points)),
    ("quadrature", "integrate_oscillatory", _wrap_integrate),
    ("asymptotics", "product_function",
     lambda t, f: _wrap(t, "asymptotics.product", f, _product_terms)),
    ("asymptotics", "fit_decay_exponent", lambda t, f: _wrap(t, "asymptotics.fit", f)),
)
# (class, method name, span name, argument shape)
METHODS = (
    ("RodeoObjective", "value", "hamiltonians.value", _value_shape),
    ("RodeoObjective", "batch", "hamiltonians.batch", _batch_shape),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rodeo_sched" or name.startswith("rodeo_sched."))]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every lookup of the traced functions through ``tracer``."""
    import rodeo_sched.hamiltonians as hamiltonians

    modules = _package_modules()
    undo = []
    try:
        for home, name, factory in FUNCTIONS:
            original = getattr(sys.modules[f"rodeo_sched.{home}"], name)
            wrapper = factory(tracer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        for cls_name, method, span, shape in METHODS:
            cls = getattr(hamiltonians, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap_method(tracer, span, original, shape))
            undo.append((cls, method, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ------------------------------------------------------------- aggregation

def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(index, ()), key=lambda i: spans[i][1]):
            c_start, c_end = max(spans[c][1], reach), min(spans[c][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, selfs) -> dict:
    """Per-layer counts and self times of one traced pass."""
    calls: dict = {}
    secs: dict = {}
    attrs: dict = {}
    for span, own in zip(spans, selfs):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + own
        for key, value in (span[4] or {}).items():
            bucket = attrs.setdefault(name, {})
            if key == "err":
                bucket[key] = max(bucket.get(key, 0.0), value)
            elif key == "dim":
                bucket[key] = max(bucket.get(key, 0), value)
            else:
                bucket[key] = bucket.get(key, 0) + value

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return secs.get(name, 0.0)

    def a(name, key):
        return attrs.get(name, {}).get(key, 0)

    def share(num, den):
        return num / den if den else 0.0

    alpha_calls = n("optimize.alpha")
    return {
        "closed_form.batch_calls": n("closed_form.batch"),
        "closed_form.batch_cols": a("closed_form.batch", "cols"),
        "closed_form.batch_s": s("closed_form.batch"),
        "closed_form.scalar_calls": n("closed_form.scalar"),
        "closed_form.scalar_s": s("closed_form.scalar"),
        "closed_form.sinc_terms": a("closed_form.batch", "sinc") + a("closed_form.scalar", "sinc"),
        "optimize.times_calls": n("optimize.times"),
        "optimize.times_self_s": s("optimize.times"),
        "optimize.de_evals": a("optimize.times", "evals"),
        "optimize.converged_share": share(a("optimize.times", "converged"), n("optimize.times")),
        "hamiltonians.value_calls": n("hamiltonians.value"),
        "hamiltonians.value_s": s("hamiltonians.value"),
        "hamiltonians.batch_calls": n("hamiltonians.batch"),
        "hamiltonians.batch_cols": a("hamiltonians.batch", "cols"),
        "hamiltonians.batch_s": s("hamiltonians.batch"),
        "hamiltonians.level_cycles": (a("hamiltonians.value", "level_cycles")
                                      + a("hamiltonians.batch", "level_cycles")),
        "hamiltonians.build_s": s("hamiltonians.build"),
        "hamiltonians.eigh_s": s("hamiltonians.eigh"),
        "hamiltonians.sector_dim": a("hamiltonians.eigh", "dim"),
        "optimize.alpha_calls": alpha_calls,
        "optimize.alpha_self_s": s("optimize.alpha"),
        "optimize.alpha_evals": a("optimize.alpha", "evals"),
        "optimize.evals_per_point": share(a("optimize.alpha", "evals"), alpha_calls),
        "optimize.flat_count": a("optimize.alpha", "flat"),
        "optimize.curve_points": a("optimize.curve", "points"),
        "schedules.superiteration_calls": n("schedules.superiteration"),
        "schedules.superiteration_s": s("schedules.superiteration"),
        "schedules.trotter_calls": n("schedules.trotter"),
        "schedules.trotter_s": s("schedules.trotter"),
        "spectral.rsn_calls": n("spectral.rsn"),
        "spectral.rsn_s": s("spectral.rsn"),
        "spectral.survival_calls": n("spectral.survival"),
        "spectral.survival_s": s("spectral.survival"),
        "spectral.survival_points": a("spectral.survival", "points"),
        "quadrature.calls": n("quadrature.integrate"),
        "quadrature.self_s": s("quadrature.integrate"),
        "quadrature.panels": a("quadrature.integrate", "panels"),
        "quadrature.useful_ratio": share(a("quadrature.integrate", "initial"),
                                         a("quadrature.integrate", "panels")),
        "quadrature.max_err_bound": a("quadrature.integrate", "err"),
        "quadrature.failures": a("quadrature.integrate", "failed"),
        "asymptotics.product_calls": n("asymptotics.product"),
        "asymptotics.product_s": s("asymptotics.product"),
        "asymptotics.phase_terms": a("asymptotics.product", "terms"),
        "asymptotics.fit_calls": n("asymptotics.fit"),
        "asymptotics.fit_self_s": s("asymptotics.fit"),
        "cli.self_s": s("cli.main"),
    }


def median_metrics(per_pass: list) -> dict:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}


# Call counters of each layer group, for the bypass check.
LAYER_CALLS = {
    "closed_form": ("closed_form.batch_calls", "closed_form.scalar_calls"),
    "optimize.times": ("optimize.times_calls",),
    "optimize.alpha": ("optimize.alpha_calls",),
    "hamiltonians": ("hamiltonians.value_calls", "hamiltonians.batch_calls",
                     "hamiltonians.sector_dim"),
    "schedules.trotter": ("schedules.trotter_calls",),
    "spectral": ("spectral.rsn_calls", "spectral.survival_calls"),
    "quadrature": ("quadrature.calls",),
    "asymptotics": ("asymptotics.product_calls", "asymptotics.fit_calls"),
}


def check_layers(expected: tuple, metrics: dict) -> dict:
    """Layer groups called though the workload should bypass them, and
    groups it should use that recorded no call (a missed lookup site)."""
    called = {g for g, keys in LAYER_CALLS.items() if any(metrics[k] for k in keys)}
    return {"unexpected_calls": sorted(called - set(expected)),
            "missing_calls": sorted(set(expected) - called)}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return {"cli.bytes_out": "B", "optimize.converged_share": "share",
            "quadrature.useful_ratio": "share", "quadrature.max_err_bound": "weight",
            "hamiltonians.sector_dim": "states"}.get(metric, "count")
