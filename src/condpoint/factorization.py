"""Executable factorization through a conditioning variable.

A variable g factors through Y exactly when it is single-valued on every
level set of Y; then the factor phi is read off as that unique value.  On
density grids exact level sets are null, so thin bands tied to the grid
pitch stand in for them, with the band width reported.  Multi-valued level
sets are a verdict with witnesses attached, not an exception, except when a
caller demands the pointwise value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyLevelSet, NotMeasurable
from .spaces import DiscreteAtoms, GridSpace, RandomVariable

FACTORED = "Factored"
NOT_MEASURABLE = "NotMeasurable"

DISCRETE_WITNESS_TOL = 1e-12
BAND_WITNESS_TOL = 1e-10


def distinct_values(values, tol: float) -> list[float]:
    """Distinct values up to tol, as sorted representatives."""
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        return []
    reps = [float(vals[0])]
    for v in vals[1:]:
        if v - reps[-1] > tol:
            reps.append(float(v))
    return reps


@dataclass(eq=False)
class FactorizationResult:
    levels: list
    witnesses: list  # per level: distinct values found on the level set
    verdict: str
    band_width: float | None = None

    @property
    def table(self) -> dict:
        """phi on the levels where factorization holds."""
        return {lv: w[0] for lv, w in zip(self.levels, self.witnesses) if len(w) == 1}

    def offending(self) -> list:
        return [(lv, w) for lv, w in zip(self.levels, self.witnesses) if len(w) > 1]

    def to_json_dict(self) -> dict:
        return {
            "kind": "factorization",
            "verdict": self.verdict,
            "band_width": None if self.band_width is None else float(self.band_width),
            "levels": [
                {"level": float(lv), "witnesses": [float(v) for v in w]}
                for lv, w in zip(self.levels, self.witnesses)
            ],
        }


def level_band(space, Y: RandomVariable, band: float | None) -> float:
    """Half-width of the band that stands in for a level set of ``Y``:
    ``band`` when given, else half the grid pitch of ``Y``'s axis."""
    if band is not None:
        return float(band)
    if isinstance(space, GridSpace) and Y.coord in space.axes:
        return 0.5 * space.pitches[space.axes.index(Y.coord)]
    raise ValueError(
        f"level bands for {Y.name!r} need an explicit band width on this space")


def factorize(space, g: RandomVariable, Y: RandomVariable, level_values,
              tol: float | None = None, band: float | None = None) -> FactorizationResult:
    """Collect g over each level set of Y and check single-valuedness.

    Discrete spaces use exact level sets over all atoms, massless ones
    included; grids use the band |Y - level| < band, pitch/2 by default for
    coordinate variables.  Verdict is Factored iff every witness list is a
    singleton; the factor table then maps level -> that value.
    """
    levels = [float(lv) for lv in level_values]
    if isinstance(space, DiscreteAtoms):
        tol = DISCRETE_WITNESS_TOL if tol is None else tol
        yv = space.values_of(Y)
        gv = space.values_of(g)
        witnesses = [distinct_values(gv[yv == lv], tol) for lv in levels]
        width = None
    else:
        tol = BAND_WITNESS_TOL if tol is None else tol
        width = level_band(space, Y, band)
        yv = space.values_of(Y).ravel()
        gv = space.values_of(g).ravel()
        witnesses = [distinct_values(gv[np.abs(yv - lv) < width], tol) for lv in levels]
    verdict = NOT_MEASURABLE if any(len(w) > 1 for w in witnesses) else FACTORED
    return FactorizationResult(levels, witnesses, verdict, band_width=width)


def pointwise_from_any_omega(space, condexp: RandomVariable, Y: RandomVariable,
                             y: float, band: float | None = None) -> float:
    """Evaluate a factored candidate at any point of the level set {Y = y}.

    The value is well-defined exactly when the witness list is a singleton;
    the check runs over all level-set points (discrete) or the whole band
    (grids), so the choice of point provably does not matter.
    """
    res = factorize(space, condexp, Y, [y], band=band)
    w = res.witnesses[0]
    if not w:
        raise EmptyLevelSet(f"no points with {Y.name} = {y!r}")
    if len(w) > 1:
        raise NotMeasurable(
            f"{condexp.name!r} takes {len(w)} distinct values on {{{Y.name}={y!r}}}",
            witnesses=w)
    return w[0]
