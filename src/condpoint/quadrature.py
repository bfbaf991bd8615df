"""Composite-trapezoid quadrature on node grids.

All grid integrals in this package go through two primitives: the plain
trapezoid rule over the full node range, and the *clipped* integral of the
piecewise-linear interpolant over an arbitrary sub-interval.  The clipped
form is exact for the interpolant, so a window boundary falling inside a
cell costs no additional error order; everything stays O(pitch^2) for
smooth integrands.

The clipped integral is one array kernel: a grid answers a window trace's
whole eps schedule in one call, the mass and the x-moment of every window
at once as two columns, with the same per-window IEEE operations as one
window of one integrand on its own.
"""

from __future__ import annotations

import numpy as np


def integrate(values: np.ndarray, step: float) -> np.ndarray | float:
    """Trapezoid rule over the last axis of `values` with uniform `step`."""
    v = np.asarray(values, dtype=float)
    total = v.sum(axis=-1) - 0.5 * (v[..., 0] + v[..., -1])
    return total * step


def cumulative(values: np.ndarray, step: float) -> np.ndarray:
    """Node values of the trapezoid antiderivative along the last axis.

    Returns an array of the same shape; entry j holds the integral of the
    piecewise-linear interpolant from node 0 to node j.
    """
    v = np.asarray(values, dtype=float)
    cells = 0.5 * step * (v[..., 1:] + v[..., :-1])
    out = np.zeros_like(v)
    np.cumsum(cells, axis=-1, out=out[..., 1:])
    return out


def clip_integral(nodes, values, lo, hi, cum):
    """Integral of the piecewise-linear interpolant over each window [lo, hi].

    `nodes` is a 1D sorted float array, `values` the float node values and
    `cum` their `cumulative`, column by column: 1D, or (nodes, columns) with
    a trailing column axis whose columns share every window.  `lo` and `hi`
    are scalars or broadcastable arrays of window ends: a scalar window on
    1D values gives a float, and otherwise an array of the windows' shape
    followed by the columns, so a single window is a batch of one.  Each
    window is intersected with the node range (NaN ends stay NaN), and one
    that misses the range entirely integrates to 0.0.

    Both ends of every window are located by one ``searchsorted`` over the
    inner nodes, which gives each end's cell directly (a node tie goes
    right), and read by gathers along each column, so a pair stored as the
    transpose of (columns, nodes) rows, as grids cache theirs, gathers
    from contiguous memory.  Each end then costs the same IEEE operations,
    in the same order, as the scalar formula
    ``cum[j] + (t - x0) * 0.5 * (v0 + v(t))``; every column reads the same
    ``t - x0`` and fraction of its cell.
    """
    if np.shape(lo) != np.shape(hi):
        lo, hi = np.broadcast_arrays(lo, hi)
    t = np.array((hi, lo), dtype=float)
    # clamp both ends into the node range, NaN staying NaN; an end of -0.0
    # clamped to a node 0.0 (or 0.0 to -0.0) gives the same integral either way
    np.maximum(t, nodes[0], out=t)
    np.minimum(t, nodes[-1], out=t)
    j = nodes[1:-1].searchsorted(t, side="right")
    j1 = j + 1
    x0 = nodes.take(j)
    d = t - x0
    frac = d / (nodes.take(j1) - x0)
    # the columns lead: each gather gives (columns, ends, windows...)
    vals, cums = values.T, cum.T
    v0 = vals.take(j, axis=-1)
    v_t = v0 + (vals.take(j1, axis=-1) - v0) * frac
    at = cums.take(j, axis=-1) + d * 0.5 * (v0 + v_t)
    out = at[:, 0] - at[:, 1] if values.ndim > 1 else at[0] - at[1]
    empty = t[0] <= t[1]
    if out.ndim == 0:
        return 0.0 if empty else float(out)
    np.copyto(out, 0.0, where=empty)
    # the columns move behind the windows' axes
    return out.transpose(*range(1, out.ndim), 0) if values.ndim > 1 else out


def cell_at(nodes, t: float) -> tuple:
    """(j, frac): the cell [nodes[j], nodes[j + 1]] that holds scalar ``t``
    (a node tie goes right; off the range, the first or last cell) and the
    fraction ``(t - nodes[j]) / (nodes[j + 1] - nodes[j])`` of it, a float."""
    j = min(max(int(nodes.searchsorted(t, side="right")) - 1, 0), nodes.shape[0] - 2)
    x0, x1 = nodes[j:j + 2].tolist()
    return j, (t - x0) / (x1 - x0)


def interp_at(nodes, values, t: float):
    """Piecewise-linear value at scalar `t`, batched over leading axes."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    j, frac = cell_at(nodes, t)
    out = values[..., j] + (values[..., j + 1] - values[..., j]) * frac
    return out if values.ndim > 1 else float(out)


def richardson_limit(e_prev: float, e_last: float, step_ratio: float, order: float) -> float:
    """One Richardson step from the two finest estimates.

    Assumes e(eps) = L + C*eps^order with successive eps shrinking by
    1/step_ratio (step_ratio > 1).
    """
    gain = step_ratio**order - 1.0
    return e_last + (e_last - e_prev) / gain


def loglog_slope(x, y) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])
