"""Oscillation-aware adaptive panel quadrature.

Integrands produced by cosine-product filters oscillate at a rate set by
the total schedule time, and a generic adaptive integrator wastes effort
discovering that rate panel by panel. The integrator here sizes its
initial panels from a caller-supplied phase rate (radians of fastest
phase per unit of the integration variable) so each panel spans one
period of the fastest phase, then refines with an embedded 7/15-point
Gauss-Kronrod pair until the summed error bound meets the requested
absolute tolerance. An integrand may return one value per point or a
row of S values (a batch of integrals over the same range); all columns
share the panels, and MAX_PANEL_COLUMNS bounds how far a batch refines.
"""

from __future__ import annotations

import math

import numpy as np

# Phase advance allowed across a single initial panel: one period of the
# fastest phase, which the 15-point rule resolves; the Gauss/Kronrod
# refinement enforces the tolerance.
PHASE_BUDGET = 2.0 * math.pi

# No panel is split once panels x columns reaches MAX_PANEL_COLUMNS (about
# 60 MB of 15-point integrand planes), but a batch may always grow to
# PANEL_GROWTH times its one-period starting set, so long horizons still
# refine. Batches wider than batch_columns are split by the caller, so the
# first round stays within the cap too. Benchmark jobs peak at 4,298
# panels x columns.
MAX_PANEL_COLUMNS = 1 << 19
PANEL_GROWTH = 8
# Panels and refinement rounds no integration may exceed.
MAX_PANELS = 200_000
MAX_ROUNDS = 40

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


def _eval_panels(func, lo, hi):
    """(Kronrod estimates, |Kronrod - Gauss|), each (panels, columns), and
    whether ``func`` returned a 1-D array."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(func(pts.ravel()), dtype=float)
    rules = half[:, None, None] * (_RULES @ vals.reshape(pts.shape + (-1,)))
    return rules[:, 0], np.abs(rules[:, 0] - rules[:, 1]), vals.ndim == 1


def integrate_oscillatory(func, lo: float, hi: float, *, phase_rate: float = 0.0,
                          abs_tol: float = 1e-10):
    """Integrate ``func`` over [lo, hi], returning (value, error_bound).

    ``func`` maps a 1-D array of P points to (P,) values, or to (P, S)
    values for S integrals at once; value and bound come back as floats
    or as (S,) arrays to match. ``phase_rate`` is the fastest oscillation
    rate of the integrand in radians per unit; initial panels are sized so
    each spans at most PHASE_BUDGET of phase. A panel is bisected when its
    Gauss/Kronrod discrepancy is large in any column whose summed bound
    is still above ``abs_tol``; the loop stops when every column's bound
    is below it. Raises QuadratureError when the panel budget (MAX_PANELS,
    and MAX_PANEL_COLUMNS for a batch) or MAX_ROUNDS runs out.
    """
    return _integrate(func, lo, hi, phase_rate, abs_tol)


def starting_panels(lo, hi, phase_rate) -> int:
    """Panels of the first round: PHASE_BUDGET of the fastest phase each,
    at most MAX_PANELS."""
    return min(max(1, math.ceil((hi - lo) * abs(phase_rate) / PHASE_BUDGET)), MAX_PANELS)


def batch_columns(lo, hi, phase_rate) -> int:
    """Most columns one batch may hold so that its first round evaluates at
    most MAX_PANEL_COLUMNS panels x columns (at least one column)."""
    return max(1, MAX_PANEL_COLUMNS // starting_panels(lo, hi, phase_rate))


def _integrate(func, lo, hi, phase_rate, abs_tol):
    """The integrate_oscillatory rule under a second name, for callers that
    integrate many columns at once outside the per-call instrumentation of
    integrate_oscillatory (see spectral.rsn_quadrature_batch)."""
    if not hi > lo:
        raise ValueError(f"empty integration range [{lo}, {hi}]")
    if abs_tol <= 0:
        raise ValueError("abs_tol must be positive")

    n0 = starting_panels(lo, hi, phase_rate)
    edges = np.linspace(lo, hi, n0 + 1)
    panel_lo = edges[:-1]
    panel_hi = edges[1:]
    kron, err, one_column = _eval_panels(func, panel_lo, panel_hi)
    limit = min(MAX_PANELS, max(MAX_PANEL_COLUMNS // err.shape[1], PANEL_GROWTH * n0))

    def shaped(columns):
        return float(columns[0]) if one_column else columns

    for _ in range(MAX_ROUNDS):
        total_err = err.sum(axis=0)
        open_cols = total_err > abs_tol
        if not open_cols.any():
            return shaped(kron.sum(axis=0)), shaped(total_err)
        if len(panel_lo) >= limit:
            break
        open_err = err[:, open_cols]
        split = np.any(open_err > abs_tol / (2.0 * len(open_err)), axis=1)
        if not split.any():
            split = np.any(open_err >= open_err.max(axis=0), axis=1)
        mid = 0.5 * (panel_lo[split] + panel_hi[split])
        new_lo = np.concatenate([panel_lo[split], mid])
        new_hi = np.concatenate([mid, panel_hi[split]])
        new_kron, new_err, _ = _eval_panels(func, new_lo, new_hi)
        panel_lo = np.concatenate([panel_lo[~split], new_lo])
        panel_hi = np.concatenate([panel_hi[~split], new_hi])
        kron = np.concatenate([kron[~split], new_kron])
        err = np.concatenate([err[~split], new_err])
        order = np.argsort(panel_lo)
        panel_lo, panel_hi = panel_lo[order], panel_hi[order]
        kron, err = kron[order], err[order]

    total_err = err.sum(axis=0)
    raise QuadratureError(
        f"quadrature did not reach abs_tol={abs_tol:g} "
        f"(best bound {float(total_err.max()):.3e} with {len(panel_lo)} panels "
        f"x {err.shape[1]} columns)",
        estimate=shaped(kron.sum(axis=0)),
        error_bound=shaped(total_err),
    )
