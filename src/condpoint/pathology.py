"""Executable negative results for conditioning on null events.

Three demonstrations:

* too coarse: on the four-set algebra {empty, A, not-A, all} over a null A,
  two candidates both verify as conditional expectations yet disagree on A,
  so "unique up to null sets" is an executed fact;
* too fine: conditioning on the full algebra returns the variable itself,
  whose value on A depends on which point of A is chosen;
* conditioning paradox: two shrinking families of positive-probability
  events targeting the same null event converge to different limits, while
  two families of windows of one conditioning variable agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateA, FamilyNotShrinking, NonApproachablePoint, NotNull
from .factorization import BAND_WITNESS_TOL, DISCRETE_WITNESS_TOL, distinct_values, level_band
from .spaces import (
    DiscreteAtoms,
    Event,
    RandomVariable,
    Sampler,
    complement_within,
    cond_expectation_event,
    expectation,
    interval_hull,
    probability,
    PROB_FLOOR,
)
from .window import Schedule, WindowTrace, shrink_trace

# Value planted on the null set by the second candidate; any number works
# there, which is the point being demonstrated.
ARBITRARY_NULL_VALUE = 17.0

# Worker threads drawing the family streams of a paradox.  numpy releases
# the GIL while it draws, and each draw in flight holds about one head column,
# so this bounds memory whatever the core count.
DRAW_THREADS = 2


def _require_null(space, A: Event) -> float:
    p = probability(space, A).value
    exact = isinstance(space, DiscreteAtoms)
    if (exact and p != 0.0) or (not exact and p >= PROB_FLOOR):
        raise NotNull(f"event {A.name!r} has mass {p!r}")
    return p


def _piecewise(A: Event, on_a: float, off_a: float, name: str) -> RandomVariable:
    def fn(arg):
        out = np.where(A._eval(arg), on_a, off_a)
        return out[()] if np.ndim(out) == 0 else out

    return RandomVariable(name, fn)


def four_set_algebra(space, A: Event) -> list[Event]:
    """Generators [A, complement of A] of the coarse algebra around A."""
    return [A, complement_within(space, A)]


def too_coarse_demo(space, X: RandomVariable, A: Event) -> tuple[RandomVariable, RandomVariable]:
    """Two verified conditional expectations on {empty, A, not-A, all}.

    Both candidates equal E[X | not-A] off A.  On A, one extends by the
    global mean and the other by an arbitrary constant; with P(A) = 0 every
    integral check is blind to the difference.
    """
    _require_null(space, A)
    comp = complement_within(space, A)
    off_a = cond_expectation_event(space, X, comp).value
    mean = expectation(space, X).value
    natural = _piecewise(A, mean, off_a, f"E[{X.name}|coarse]:mean-on-null")
    planted = _piecewise(A, ARBITRARY_NULL_VALUE, off_a,
                         f"E[{X.name}|coarse]:{ARBITRARY_NULL_VALUE:g}-on-null")
    return natural, planted


@dataclass(eq=False)
class TooFineReport:
    """Distinct values of X across a null event: the pointwise choice fails."""

    witnesses: list
    points: list  # (point description, value) samples from the event
    band_width: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": "too_fine_report",
            "witnesses": [float(w) for w in self.witnesses],
            "points": [[str(p), float(v)] for p, v in self.points],
            "band_width": None if self.band_width is None else float(self.band_width),
        }


def too_fine_demo(space, X: RandomVariable, A: Event,
                  band: float | None = None) -> TooFineReport:
    """Condition on the full algebra: the candidate is X itself.

    Its value on the null event A depends on the chosen point; the report
    lists the distinct values found there.  Raises DegenerateA when X is
    constant on A (nothing to demonstrate) and NotNull when P(A) > 0.
    """
    _require_null(space, A)
    if isinstance(space, DiscreteAtoms):
        members = space.members(A)
        values = [float(X.fn(a)) for a in members]
        witnesses = distinct_values(values, DISCRETE_WITNESS_TOL)
        points = list(zip(members, values))
        width = None
    else:
        if A.kind != "intervals" or len(A.pieces) != 1:
            raise ValueError("grid demonstrations need A as one interval of a variable")
        lo, hi = A.pieces[0]
        center = 0.5 * (lo + hi)
        # one grid pitch around the null interval, on the event's own axis
        width = band if band is not None else (hi - lo) + 2.0 * level_band(space, A.rv, None)
        yv = space.values_of(A.rv).ravel()
        xv = space.values_of(X).ravel()
        sel = np.abs(yv - center) < width
        values = xv[sel]
        witnesses = distinct_values(values, BAND_WITNESS_TOL)
        step = max(1, values.size // 8)
        points = [(f"{A.rv.name}~{center:g}#{i}", float(v))
                  for i, v in enumerate(values[::step])]
    if len(witnesses) < 2:
        raise DegenerateA(f"{X.name!r} is constant on {A.name!r}; nothing to show")
    return TooFineReport(witnesses, points, width)


@dataclass(frozen=True, eq=False)
class ApproximationFamily:
    """A rule eps -> positive-probability event shrinking onto a null target."""

    name: str
    rule: Callable[[float], Event]

    def pairs(self, epsilons) -> list:
        return [(float(e), self.rule(float(e))) for e in epsilons]


@dataclass(eq=False)
class ParadoxReport:
    """Limits of several approximation families of one null event."""

    description: str
    traces: dict
    discrepancy: float
    combined_tol: float
    pair: tuple | None

    @property
    def limits(self) -> dict:
        return {name: t.value for name, t in self.traces.items()}

    def to_json_dict(self) -> dict:
        return {
            "kind": "paradox_report",
            "description": self.description,
            "discrepancy": float(self.discrepancy),
            "combined_tol": float(self.combined_tol),
            "pair": list(self.pair) if self.pair else None,
            "families": {name: t.to_json_dict() for name, t in self.traces.items()},
        }


def _check_shrinking(name: str, trace: WindowTrace):
    probs = [s.prob for s in trace.steps]
    for a, b in zip(probs[:-1], probs[1:]):
        if b > a * (1.0 + 1e-9):
            raise FamilyNotShrinking(f"family {name!r} mass grew from {a!r} to {b!r}")
    if len(probs) >= 2 and not probs[-1] < probs[0]:
        raise FamilyNotShrinking(f"family {name!r} mass does not shrink along the schedule")


def _restricted(stream: Sampler, hull):
    return stream if hull is None else stream.restricted(hull)


def borel_kolmogorov(space, X: RandomVariable, families, schedule: Schedule,
                     tol: float = 1e-6, n_min: int = 100,
                     description: str = "") -> ParadoxReport:
    """Run every family over the full schedule and compare converged limits.

    Families run on independent sampler sub-streams, over one shared eps
    grid (no early stopping), so their traces are directly comparable.  The
    discrepancy is the largest gap between converged limits; the combined
    tolerance is the sum of the two effective tolerances of that pair.

    A family whose events are intervals of one variable draws only the rows
    inside their hull, which gives the numbers of the full stream.  The
    streams are drawn on DRAW_THREADS worker threads, which call no public
    method of the sampler; the traces then run in family order on the
    calling thread.
    """
    if schedule.eps0 is None:
        raise ValueError("paradox schedules need an explicit eps0")
    epsilons = schedule.epsilons(schedule.eps0)
    runs = [(fam, fam.pairs(epsilons)) for fam in families]
    streams = [space] * len(runs)
    if isinstance(space, Sampler):
        # imported here: it would add 2.5 ms to every `import condpoint`
        from concurrent.futures import ThreadPoolExecutor

        subs = [space.substream(i) for i in range(len(runs))]
        hulls = [interval_hull(event for _, event in pairs) for _, pairs in runs]
        with ThreadPoolExecutor(DRAW_THREADS) as pool:
            streams = list(pool.map(_restricted, subs, hulls))
    traces = {}
    for (fam, pairs), fam_space in zip(runs, streams):
        try:
            trace = shrink_trace(fam_space, X, pairs, tol=tol,
                                 n_min=n_min, target=0.0, stop_early=False)
        except NonApproachablePoint as exc:
            raise FamilyNotShrinking(f"family {fam.name!r} lost positivity: {exc}") from exc
        _check_shrinking(fam.name, trace)
        traces[fam.name] = trace
    converged = [(name, t) for name, t in traces.items() if t.verdict == "Converged"]
    discrepancy = math.nan
    combined = math.inf
    pair = None
    for i in range(len(converged)):
        for j in range(i + 1, len(converged)):
            (na, ta), (nb, tb) = converged[i], converged[j]
            gap = abs(ta.value - tb.value)
            if pair is None or gap > discrepancy:
                discrepancy, combined, pair = gap, ta.tol + tb.tol, (na, nb)
    return ParadoxReport(description, traces, discrepancy, combined, pair)


def ratio_normal_instance(seed: int = 20260811, budget: int = 20_000_000) -> dict:
    """The shipped paradox: independent standard normal (Z, Y), target {Y=0}.

    The same null line is approached once by windows of Y and once by
    windows of the ratio W = Y/Z; the conditional second moment of Z tells
    the two limits apart.  The control pair approaches {Y=0} by two
    different window families of Y alone and must agree.
    """
    space = Sampler("standard-normal-pair", seed=int(seed), budget=int(budget),
                    name="ratio-normal")
    z_sq = RandomVariable("z_squared", lambda cols: cols["z"] ** 2)
    y = RandomVariable("y", lambda cols: cols["y"], coord="y")
    ratio = RandomVariable("y_over_z", lambda cols: cols["y"] / cols["z"])
    via_y = ApproximationFamily("via_y", lambda e: Event.window(y, 0.0, e))
    via_ratio = ApproximationFamily("via_ratio", lambda e: Event.window(ratio, 0.0, e))
    via_y_narrow = ApproximationFamily("via_y_narrow",
                                       lambda e: Event.window(y, 0.0, 0.6 * e))
    return {
        "space": space,
        "X": z_sq,
        "families": (via_y, via_ratio),
        "control_families": (via_y, via_y_narrow),
        "schedule": Schedule(eps0=0.4, factor=0.5, depth=4),
        "description": "E[Z^2 | {Y=0}] via Y-windows vs via (Y/Z)-windows "
                       "on independent standard normal (Z, Y)",
    }
