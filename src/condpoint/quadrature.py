"""Composite-trapezoid quadrature on node grids.

All grid integrals in this package go through two primitives: the plain
trapezoid rule over the full node range, and the *clipped* integral of the
piecewise-linear interpolant over an arbitrary sub-interval.  The clipped
form is exact for the interpolant, so a window boundary falling inside a
cell costs no additional error order; everything stays O(pitch^2) for
smooth integrands.
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


def _antiderivative_at(nodes, values, cum, t):
    """Evaluate the piecewise-linear antiderivative at scalar `t`.

    `t` must already be clamped to [nodes[0], nodes[-1]].  The arithmetic
    runs on Python floats, which round as float64 does.
    """
    j = min(max(int(nodes.searchsorted(t, side="right")) - 1, 0), nodes.shape[0] - 2)
    x0, x1 = nodes[j:j + 2].tolist()
    v0, v1 = values[j:j + 2].tolist()
    v_t = v0 + (v1 - v0) * ((t - x0) / (x1 - x0))
    return cum[j].item() + (t - x0) * 0.5 * (v0 + v_t)


def clip_integral(nodes, values, lo, hi, cum=None) -> float:
    """Integral of the piecewise-linear interpolant over [lo, hi].

    `nodes` is a 1D sorted float array and `values` the 1D float node
    values.  The window is intersected with the node range; a window that
    misses the range entirely integrates to zero.  Passing a precomputed
    `cumulative(values, step)` avoids the O(n) prefix sum.
    """
    lo = max(float(lo), float(nodes[0]))
    hi = min(float(hi), float(nodes[-1]))
    if hi <= lo:
        return 0.0
    if cum is None:
        cum = cumulative(values, float(nodes[1] - nodes[0]))
    upper = _antiderivative_at(nodes, values, cum, hi)
    lower = _antiderivative_at(nodes, values, cum, lo)
    return upper - lower


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
