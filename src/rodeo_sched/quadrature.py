"""Oscillation-aware adaptive panel quadrature.

Integrands produced by cosine-product filters oscillate at a rate set by
the total schedule time, and a generic adaptive integrator wastes effort
discovering that rate panel by panel. The integrator here sizes its
initial panels from a caller-supplied phase rate (radians of fastest
phase per unit of the integration variable) so each panel spans one
period of the fastest phase, then refines with an embedded 7/15-point
Gauss-Kronrod pair until the summed error bound meets the requested
absolute tolerance. An integrand may return one value per point or a
row of S values (a batch of integrals over the same range). Each column
gets its own starting panels, splits and panel cap, and its value and
bound are the bits it would get integrated alone: columns that need the
same points share one integrand call.
"""

from __future__ import annotations

import math

import numpy as np

# Phase advance allowed across a single initial panel: one period of the
# fastest phase, which the 15-point rule resolves; the Gauss/Kronrod
# refinement enforces the tolerance.
PHASE_BUDGET = 2.0 * math.pi

# Most panels x columns one integrand call evaluates: a call of more
# columns is split into calls of fewer (about 60 MB of 15-point planes).
MAX_PANEL_COLUMNS = 1 << 19
# Panels and refinement rounds no integration may exceed.
MAX_PANELS = 200_000
MAX_ROUNDS = 40
# Default absolute tolerance of every integral; a value below it is not
# resolved by the integrator.
ABS_TOL = 1e-10

# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
# The Gauss weight vector is zero at the Kronrod-only nodes so a single
# set of function values serves both rules.
_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_W_KRONROD = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_W_GAUSS = np.array([
    0.0, 0.129484966168870, 0.0,
    0.279705391489277, 0.0, 0.381830050505119,
    0.0, 0.417959183673469,
    0.0, 0.381830050505119, 0.0,
    0.279705391489277, 0.0, 0.129484966168870,
    0.0,
])
_RULES = np.stack([_W_KRONROD, _W_GAUSS])


class QuadratureError(RuntimeError):
    """Panel budget exhausted before the error bound met tolerance.

    Carries the best available estimate and its error bound (in the
    integrand's column shape) so callers can still report a partial
    result.
    """

    def __init__(self, message: str, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def _eval_panels(func, lo, hi, cols):
    """Yield (columns, Kronrod estimates, |Kronrod - Gauss|, one_column)
    of the integrand columns ``cols`` on the panels [lo, hi], the
    estimates (columns, panels), one call of func at a time. ``cols``
    None asks func for all its columns in one call (one_column: it
    returned a 1-D array); otherwise a call holds at most
    MAX_PANEL_COLUMNS panels x columns."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    if cols is None:
        vals = np.asarray(func(pts, None), dtype=float)
        rules = _rule_sums(vals, len(lo)) * half
        yield range(rules.shape[1]), rules[0], np.abs(rules[0] - rules[1]), vals.ndim == 1
        return
    step = max(1, MAX_PANEL_COLUMNS // len(lo))
    for c in range(0, len(cols), step):
        rules = _rule_sums(func(pts, cols[c:c + step]), len(lo)) * half
        yield cols[c:c + step], rules[0], np.abs(rules[0] - rules[1]), False


def _rule_sums(vals, panels):
    """(Kronrod, Gauss) sums of (15 x panels, k) integrand values, (2, k,
    panels). On contiguous values einsum takes each panel's 15-node sum in
    one order whatever the shape (a BLAS product's order follows the
    shape), and numpy sums each row of the C-ordered result as it sums the
    row alone."""
    rows = np.ascontiguousarray(np.asarray(vals, dtype=float).T).reshape(-1, panels, len(_NODES))
    return np.einsum("spk,rk->rsp", rows, _RULES, order="C")


def integrate_oscillatory(func, lo: float, hi: float, *, phase_rate: float = 0.0,
                          abs_tol: float = ABS_TOL):
    """Integrate ``func`` over [lo, hi], returning (value, error_bound).

    ``func`` maps a 1-D array of P points to (P,) values, or to (P, S)
    values for S integrals at once; value and bound come back as floats
    or as (S,) arrays to match. ``phase_rate`` is the fastest oscillation
    rate of the integrand in radians per unit; initial panels are sized so
    each spans at most PHASE_BUDGET of phase. Each column is refined on
    its own, as if integrated alone, until its bound is below ``abs_tol``.
    Raises QuadratureError when a column would need more than MAX_PANELS
    panels or MAX_ROUNDS rounds.
    """
    return _integrate(func, lo, hi, phase_rate, abs_tol)


def starting_panels(lo, hi, phase_rate):
    """Panels of the first round: PHASE_BUDGET of the fastest phase each,
    at most MAX_PANELS; an int, or an int array for an array of rates
    (the same float operations either way)."""
    if np.ndim(phase_rate) == 0:
        return min(max(1, math.ceil((hi - lo) * abs(phase_rate) / PHASE_BUDGET)), MAX_PANELS)
    n = np.ceil((hi - lo) * np.abs(phase_rate) / PHASE_BUDGET)
    return np.minimum(np.maximum(n, 1), MAX_PANELS).astype(int)


def _integrate(func, lo, hi, phase_rate, abs_tol):
    """The integrate_oscillatory rule under a second name, for callers
    outside the per-call instrumentation of integrate_oscillatory. Every
    column of ``func`` comes from each call; a column refined on other
    points than its neighbours takes its own values from a call of its
    own points."""
    def columns(points, cols):
        vals = np.asarray(func(points), dtype=float)
        return vals if cols is None else vals.reshape(len(points), -1)[:, cols]

    values, bounds, one_column = _integrate_columns(columns, lo, hi, phase_rate, abs_tol)
    if one_column:
        return float(values[0]), float(bounds[0])
    return values, bounds


def _integrate_columns(func, lo, hi, phase_rate, abs_tol):
    """Integrate the columns of ``func`` over [lo, hi], each on panels of
    its own: (values, bounds, one_column), the first two (S,).

    ``func(points, cols)`` returns the (P, len(cols)) values of integrand
    columns ``cols`` (an index array) at P points. ``phase_rate`` holds
    each column's rate (S,), or is one float for every column: then func
    is first called with cols None for all its columns, and a (P,) result
    is one column (one_column). A column's starting panels, splits and cap
    depend on its own rate and values alone, and columns that need the
    same points share one call of func, so a column whose values do not
    depend on the other columns of the call gets the bits it gets alone.
    """
    if not hi > lo:
        raise ValueError(f"empty integration range [{lo}, {hi}]")
    if abs_tol <= 0:
        raise ValueError("abs_tol must be positive")
    shared = np.ndim(phase_rate) == 0
    n0 = starting_panels(lo, hi, phase_rate)
    firsts, panels = [], {}
    for n in [n0] if shared else np.unique(n0):
        edges = np.linspace(lo, hi, n + 1)
        for cols, kron, err, one_column in _eval_panels(
                func, edges[:-1], edges[1:], None if shared else np.flatnonzero(n0 == n)):
            sums, errs = kron.sum(axis=1), err.sum(axis=1)
            firsts.append((cols, sums, errs))
            for i in np.flatnonzero(errs > abs_tol):
                panels[cols[i]] = (edges[:-1], edges[1:], kron[i], err[i])
    if len(firsts) == 1:  # every column in one call, in order
        _, values, bounds = firsts[0]
    else:
        values, bounds = np.empty(len(n0)), np.empty(len(n0))
        for cols, sums, errs in firsts:
            values[cols], bounds[cols] = sums, errs

    failed = []
    for _ in range(MAX_ROUNDS):
        splits = {}
        for s, (p_lo, p_hi, kron, err) in panels.items():
            if len(p_lo) >= MAX_PANELS:
                failed.append(s)
                continue
            split = err > abs_tol / (2.0 * len(err))
            if not split.any():
                split = err >= err.max()
            mid = 0.5 * (p_lo[split] + p_hi[split])
            new_lo = np.concatenate([p_lo[split], mid])
            new_hi = np.concatenate([mid, p_hi[split]])
            key = new_lo.tobytes() + new_hi.tobytes()
            splits.setdefault(key, (new_lo, new_hi, []))[2].append((s, split))
        refined = {}
        for new_lo, new_hi, members in splits.values():
            cuts = dict(members)
            for cols, new_kron, new_err, _ in _eval_panels(func, new_lo, new_hi,
                                                           np.array(list(cuts))):
                for s, kron_s, err_s in zip(cols, new_kron, new_err):
                    split = cuts[s]
                    p_lo, p_hi, kron, err = panels[s]
                    p_lo = np.concatenate([p_lo[~split], new_lo])
                    p_hi = np.concatenate([p_hi[~split], new_hi])
                    kron = np.concatenate([kron[~split], kron_s])
                    err = np.concatenate([err[~split], err_s])
                    order = np.argsort(p_lo)
                    kron, err = kron[order], err[order]
                    values[s], bounds[s] = kron.sum(), err.sum()
                    if bounds[s] > abs_tol:
                        refined[s] = (p_lo[order], p_hi[order], kron, err)
        panels = refined
        if not panels:
            break
    failed += list(panels)
    if failed:
        raise QuadratureError(
            f"quadrature did not reach abs_tol={abs_tol:g} in {len(failed)} of "
            f"{len(values)} columns (worst bound {bounds[failed].max():.3e})",
            estimate=float(values[0]) if one_column else values,
            error_bound=float(bounds[0]) if one_column else bounds)
    return values, bounds, one_column
