"""Oscillation-aware adaptive panel quadrature.

Integrands produced by cosine-product filters oscillate at a rate set by
the total schedule time, and a generic adaptive integrator wastes effort
discovering that rate panel by panel. The integrator here sizes its
initial panels from a caller-supplied phase rate (radians of fastest
phase per unit of the integration variable) so each panel spans one
period of the fastest phase, then refines with an embedded 7/15-point
Gauss-Kronrod pair until the summed error bound meets the requested
absolute tolerance. There is one rule, over a batch of S integrand
columns on the same range (_integrate_columns); integrate_oscillatory is
its one-column case. Each column gets its own starting panels, splits
and panel cap, and its value and bound are the bits it would get
integrated alone: columns on the same starting panels share the
first-round integrand call, and a column that refines does so alone.
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

    Carries the best available estimate and its error bound (floats from
    integrate_oscillatory, (S,) arrays from a batch of columns) so callers
    can still report a partial result.
    """

    def __init__(self, message: str, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def _eval_panels(func, lo, hi, cols):
    """Yield (columns, Kronrod estimates, |Kronrod - Gauss|) of the
    integrand columns ``cols`` on the panels [lo, hi], the estimates
    (columns, panels), one call of func per at most MAX_PANEL_COLUMNS
    panels x columns."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    step = max(1, MAX_PANEL_COLUMNS // len(lo))
    for c in range(0, len(cols), step):
        rules = _rule_sums(func(pts, cols[c:c + step]), len(lo)) * half
        yield cols[c:c + step], rules[0], np.abs(rules[0] - rules[1])


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

    ``func`` maps a 1-D array of P points to their (P,) values; any other
    shape raises ValueError. ``phase_rate`` is the fastest oscillation
    rate of the integrand in radians per unit; initial panels are sized so
    each spans at most PHASE_BUDGET of phase. Panels are refined until the
    bound is below ``abs_tol``. This is the one-column case of the batch
    rule (_integrate_columns), with the same bits. Raises QuadratureError,
    carrying float estimate and bound, when it would need more than
    MAX_PANELS panels or MAX_ROUNDS rounds.
    """
    def column(points, _cols):
        vals = np.asarray(func(points), dtype=float)
        if vals.shape != points.shape:
            raise ValueError(f"integrand must return one value per point: got shape "
                             f"{vals.shape} for {points.shape[0]} points")
        return vals[:, None]

    try:
        values, bounds = _integrate_columns(column, lo, hi, np.array([phase_rate], dtype=float),
                                            abs_tol)
    except QuadratureError as exc:
        raise QuadratureError(str(exc), float(exc.estimate[0]),
                              float(exc.error_bound[0])) from None
    return float(values[0]), float(bounds[0])


def starting_panels(lo, hi, phase_rate):
    """Panels of the first round for each rate of ``phase_rate``:
    PHASE_BUDGET of its phase each, at most MAX_PANELS (an int array)."""
    n = np.ceil((hi - lo) * np.abs(phase_rate) / PHASE_BUDGET)
    return np.minimum(np.maximum(n, 1), MAX_PANELS).astype(int)


def _integrate_columns(func, lo, hi, phase_rate, abs_tol):
    """Integrate the columns of ``func`` over [lo, hi], each on panels of
    its own: (values, bounds), both (S,).

    ``func(points, cols)`` returns the (P, len(cols)) values of integrand
    columns ``cols`` (an index array) at P points. ``phase_rate`` holds
    each column's rate (S,). A column's starting panels, splits and cap
    depend on its own rate and values alone. Columns on the same starting
    panels share the first-round calls of func, and a column that misses
    ``abs_tol`` then refines alone, one call per round; so a column whose
    values do not depend on the other columns of a call gets the bits it
    gets alone.
    """
    if not hi > lo:
        raise ValueError(f"empty integration range [{lo}, {hi}]")
    if abs_tol <= 0:
        raise ValueError("abs_tol must be positive")
    groups = {}  # starting panel count -> its columns
    for s, n in enumerate(starting_panels(lo, hi, phase_rate).tolist()):
        groups.setdefault(n, []).append(s)
    values, bounds = np.empty(len(phase_rate)), np.empty(len(phase_rate))
    refining = []  # (column, panel lows, panel highs, Kronrod, |Kronrod - Gauss|)
    for n, members in sorted(groups.items()):
        edges = np.linspace(lo, hi, n + 1)
        for cols, kron, err in _eval_panels(func, edges[:-1], edges[1:], np.array(members)):
            values[cols], bounds[cols] = kron.sum(axis=1), err.sum(axis=1)
            refining += [(s, edges[:-1], edges[1:], kron[i], err[i])
                         for i, s in enumerate(cols) if bounds[s] > abs_tol]

    for s, p_lo, p_hi, kron, err in refining:
        for _ in range(MAX_ROUNDS):
            if not bounds[s] > abs_tol or len(p_lo) >= MAX_PANELS:
                break
            split = err > abs_tol / (2.0 * len(err))
            if not split.any():
                split = err >= err.max()
            mid = 0.5 * (p_lo[split] + p_hi[split])
            new_lo = np.concatenate([p_lo[split], mid])
            new_hi = np.concatenate([mid, p_hi[split]])
            [(_, new_kron, new_err)] = _eval_panels(func, new_lo, new_hi, np.array([s]))
            p_lo = np.concatenate([p_lo[~split], new_lo])
            p_hi = np.concatenate([p_hi[~split], new_hi])
            kron = np.concatenate([kron[~split], new_kron[0]])
            err = np.concatenate([err[~split], new_err[0]])
            order = np.argsort(p_lo)
            p_lo, p_hi, kron, err = p_lo[order], p_hi[order], kron[order], err[order]
            values[s], bounds[s] = kron.sum(), err.sum()
    failed = bounds > abs_tol
    if failed.any():
        raise QuadratureError(
            f"quadrature did not reach abs_tol={abs_tol:g} in {failed.sum()} of "
            f"{len(values)} columns (worst bound {bounds[failed].max():.3e})",
            estimate=values, error_bound=bounds)
    return values, bounds
