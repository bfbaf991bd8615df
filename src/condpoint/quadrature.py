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

    Both ends of every window are located by one ``searchsorted`` (a node
    tie goes right) and read by gathers; each end then costs the same IEEE
    operations, in the same order, as the scalar formula
    ``cum[j] + (t - x0) * 0.5 * (v0 + v(t))``; every column reads the
    same ``t - x0`` and fraction of its cell.
    """
    if np.shape(lo) != np.shape(hi):
        lo, hi = np.broadcast_arrays(lo, hi)
    t = np.array((hi, lo), dtype=float)
    # clamp both ends into the node range: as max(lo, first) and min(hi, last)
    # on every window that is not empty, and NaN stays NaN
    first, last = nodes[0], nodes[-1]
    np.copyto(t, first, where=first > t)
    np.copyto(t, last, where=last < t)
    empty = t[0] <= t[1]
    j = nodes.searchsorted(t, side="right")
    j -= 1
    np.maximum(j, 0, out=j)
    np.minimum(j, nodes.shape[0] - 2, out=j)
    x0, x1 = nodes[j], nodes[j + 1]
    v0, v1 = values[j], values[j + 1]
    d = t - x0
    frac = d / (x1 - x0)
    if values.ndim > 1:  # the columns share each end's cell
        d, frac, empty = d[..., None], frac[..., None], empty[..., None]
    v_t = v0 + (v1 - v0) * frac
    at = cum[j] + d * 0.5 * (v0 + v_t)
    out = np.where(empty, 0.0, at[0] - at[1])
    return float(out) if out.ndim == 0 else out


def interp_at(nodes, values, t: float):
    """Piecewise-linear value at scalar `t`, batched over leading axes."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    j = min(max(int(nodes.searchsorted(t, side="right")) - 1, 0), nodes.shape[0] - 2)
    frac = (t - nodes[j]) / (nodes[j + 1] - nodes[j])
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
