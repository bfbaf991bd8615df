"""Conditional densities from 2D joints.

The second grid axis is the conditioning one: with a joint density f(z, y)
on a rectangle, the marginal at y is the z-quadrature of the interpolated
column, and the conditional density of z given y is the pointwise ratio of
joint to marginal.  The ratio is renormalized so its quadrature integral is
exactly 1, and the defect of the raw ratio is kept on record.  The marginal
is the z-trapezoid of the same column, so that defect is roundoff by
construction: it does not measure the mesh error of the grid.  Conditioning
is only defined where the marginal clears the density floor.

Interpolation in y and quadrature in z are both linear, so the marginal at
y is the interpolant of the cached node marginals along y, and the
conditional mean is the ratio of two such interpolants: the eps -> 0 limit
of the window route on the same interpolant, in O(1) per point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .errors import NullMarginal, OutOfRectangle
from .spaces import DensityGrid2D, _grid_marginal, coordinate

DENSITY_FLOOR = 1e-12


def _inside(joint: DensityGrid2D, y: float) -> float:
    """``y`` as a float; OutOfRectangle when it lies off the conditioning range."""
    c, d = joint.ranges[1]
    if not (c <= y <= d):
        raise OutOfRectangle(f"y={y!r} outside [{c!r}, {d!r}]")
    return float(y)


def _column_at(joint: DensityGrid2D, y: float) -> np.ndarray:
    """Density profile z -> f(z, y), linear between the two nearest columns."""
    return np.asarray(quad.interp_at(joint.grid[1], joint.values, _inside(joint, y)))


def marginal(joint: DensityGrid2D, y: float) -> float:
    """Marginal density of the conditioning axis at y, read off the cached
    mass pair along y."""
    return quad.interp_at(joint.grid[1], _grid_marginal(joint, None, 1)[0][:, 1],
                          _inside(joint, y))


def _above_floor(fy: float, y: float) -> float:
    """``fy``, the marginal at y; NullMarginal when it is below ``DENSITY_FLOOR``."""
    if fy < DENSITY_FLOOR:
        raise NullMarginal(f"marginal at y={y!r} is {fy!r}, below the floor {DENSITY_FLOOR!r}")
    return fy


@dataclass(eq=False)
class ConditionalDensity:
    """The z-density given a fixed conditioning value.

    ``defect`` is the quadrature integral of the raw ratio minus 1: roundoff,
    since the marginal is the quadrature of the same column, not mesh error.
    After renormalization the density integrates to 1 exactly (to roundoff),
    which keeps downstream distribution functions ending at 1.
    """

    y: float
    nodes: np.ndarray
    values: np.ndarray
    marginal_value: float
    defect: float
    pitch: float

    def __post_init__(self):
        if np.any(self.values < 0):
            raise ValueError("conditional density values must be non-negative")
        total = float(quad.integrate(self.values, self.pitch))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"conditional density integrates to {total!r}")

    def expectation(self, g=None) -> float:
        """Integral of g(z) against the density; identity when g is None."""
        gz = self.nodes if g is None else np.broadcast_to(
            np.asarray(g(self.nodes), dtype=float), self.nodes.shape)
        return float(quad.integrate(gz * self.values, self.pitch))

    @functools.cached_property
    def cum(self) -> np.ndarray:
        """The antiderivative at the nodes, built on the first ``cdf`` call."""
        return quad.cumulative(self.values, self.pitch)

    def cdf(self, x):
        """Mass at or below x: a float for a number, an array for an array."""
        return quad.clip_integral(self.nodes, self.values, self.nodes[0], x, self.cum)


def conditional_density(joint: DensityGrid2D, y: float) -> ConditionalDensity:
    """The ratio construction f(z, y) / f_Y(y) on the z grid; NullMarginal
    when the marginal is below ``DENSITY_FLOOR`` (1e-12)."""
    col = _column_at(joint, y)
    fy = _above_floor(float(quad.integrate(col, joint.pitches[0])), y)
    ratio = col / fy
    raw = float(quad.integrate(ratio, joint.pitches[0]))
    return ConditionalDensity(y=float(y), nodes=joint.grid[0], values=ratio / raw,
                              marginal_value=fy, defect=raw - 1.0, pitch=joint.pitches[0])


def conditional_expectation_via_density(joint: DensityGrid2D, y: float, g=None) -> float:
    """Integral of g(z) against the conditional density at y; NullMarginal
    when the marginal at y is below ``DENSITY_FLOOR``.

    With g None this is the conditional mean, the density-ratio counterpart
    of the shrinking-window limit: the marginal of z*f at y over the marginal
    of f at y, read off the cached marginals along y.  A given g is the
    ``expectation`` of ``conditional_density(joint, y)``.
    """
    if g is not None:
        return conditional_density(joint, y).expectation(g)
    # z's cached pair along y holds both marginals, f in column 0 and z*f in
    # column 1: one cell lookup, then each is read as ``interp_at`` reads it
    j, frac = quad.cell_at(joint.grid[1], _inside(joint, y))
    pair = _grid_marginal(joint, coordinate(joint.axes[0]), 1)[0]
    (f0, zf0), (f1, zf1) = pair[j:j + 2].tolist()
    fy = _above_floor(f0 + (f1 - f0) * frac, y)
    return (zf0 + (zf1 - zf0) * frac) / fy
