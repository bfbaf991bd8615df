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

from .errors import DegenerateA, FamilyNotShrinking, NonApproachablePoint, NotNull
from .factorization import BAND_WITNESS_TOL, DISCRETE_WITNESS_TOL, distinct_values, level_band
from .partition import _piecewise_rv
from .spaces import (
    DiscreteAtoms,
    Event,
    RandomVariable,
    Sampler,
    complement_within,
    cond_expectation_event,
    expectation,
    is_null,
    probability,
    values_on,
)
from .window import CONVERGED, DEFAULT_TOL, Schedule, WindowTrace, shrink_trace

# Value planted on the null set by the second candidate; any number works
# there, which is the point being demonstrated.
ARBITRARY_NULL_VALUE = 17.0


def _require_null(space, A: Event) -> float:
    p = probability(space, A).value
    if not is_null(space, p):
        raise NotNull(f"event {A.name!r} has mass {p!r}")
    return p


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
    cells = (A, A.complement())
    natural = _piecewise_rv(cells, (mean, off_a), f"E[{X.name}|coarse]:mean-on-null")
    planted = _piecewise_rv(cells, (ARBITRARY_NULL_VALUE, off_a),
                            f"E[{X.name}|coarse]:{ARBITRARY_NULL_VALUE:g}-on-null")
    return natural, planted


@dataclass(eq=False)
class TooFineReport:
    """Distinct values of X across a null event: the pointwise choice fails."""

    witnesses: list
    points: list  # (point description, value) samples from the event
    band_width: float | None = None


def too_fine_demo(space, X: RandomVariable, A: Event,
                  band: float | None = None) -> TooFineReport:
    """Condition on the full algebra: the candidate is X itself.

    Its value on the null event A depends on the chosen point; the report
    lists the distinct values found there.  Raises DegenerateA when X is
    constant on A (nothing to demonstrate) and NotNull when P(A) > 0.
    """
    _require_null(space, A)
    if isinstance(space, DiscreteAtoms):
        values = values_on(space, X, A)
        witnesses = distinct_values(values, DISCRETE_WITNESS_TOL)
        points = [(a, float(v)) for a, v in zip(space.members(A), values)]
        width = None
    else:
        if A.kind != "intervals" or len(A.pieces) != 1:
            raise ValueError("grid demonstrations need A as one interval of a variable")
        lo, hi = A.pieces[0]
        center = 0.5 * (lo + hi)
        # one grid pitch around the null interval, on the event's own axis
        width = band if band is not None else (hi - lo) + 2.0 * level_band(space, A.rv, None)
        values = values_on(space, X, Event.window(A.rv, center, width))
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


def _family_trace(fam: ApproximationFamily, stream, X: RandomVariable, pairs,
                  tol: float) -> WindowTrace:
    try:
        trace = shrink_trace(stream, X, pairs, tol=tol, target=0.0, stop_early=False)
    except NonApproachablePoint as exc:
        raise FamilyNotShrinking(f"family {fam.name!r} lost positivity: {exc}") from exc
    _check_shrinking(fam.name, trace)
    return trace


def _report(description: str, traces: dict) -> ParadoxReport:
    converged = [(name, t) for name, t in traces.items() if t.verdict == CONVERGED]
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


def paradox_reports(space, X: RandomVariable, groups, schedule: Schedule,
                    tol: float = DEFAULT_TOL) -> list:
    """One ParadoxReport per ``(families, description)`` group, from one draw plan.

    Every family runs over the full schedule (no early stopping) on one
    shared eps grid, so the traces are directly comparable.  A report's
    discrepancy is the largest gap between its converged limits; the
    combined tolerance is the sum of the two effective tolerances of that
    pair.

    On a sampler, family ``i`` of a group runs on ``space.substream(i)``.
    A trace is keyed by (substream index, family): a key listed by several
    groups is traced once and its trace shared.  Each substream answers
    every window of every family it feeds in one streamed pass
    (``Sampler.cond_each``), which keeps no rows and splits its own blocks
    over worker threads; the substreams pass one after another.  The traces
    then run in family order from the stored answers, so no substream draws
    its columns.
    """
    if schedule.eps0 is None:
        raise ValueError("paradox schedules need an explicit eps0")
    epsilons = schedule.epsilons(schedule.eps0)
    pairs = {key: key[1].pairs(epsilons) for key in dict.fromkeys(
        (i, fam) for families, _ in groups for i, fam in enumerate(families))}
    streams = dict.fromkeys(pairs, space)
    if isinstance(space, Sampler):
        plan: dict = {}  # substream index -> the trace keys it feeds
        for key in pairs:
            plan.setdefault(key[0], []).append(key)
        subs = {i: space.substream(i) for i in plan}
        streams = {key: subs[key[0]] for key in pairs}
        for i, keys in plan.items():
            subs[i].cond_each(X, [[event for _, event in pairs[key]] for key in keys])
    traces = {key: _family_trace(key[1], streams[key], X, pairs[key], tol) for key in pairs}
    return [_report(description, {fam.name: traces[i, fam] for i, fam in enumerate(families)})
            for families, description in groups]


def borel_kolmogorov(space, X: RandomVariable, families, schedule: Schedule,
                     tol: float = DEFAULT_TOL, description: str = "") -> ParadoxReport:
    """Run every family over the full schedule and compare converged limits:
    the one-group case of ``paradox_reports``."""
    return paradox_reports(space, X, [(families, description)], schedule, tol)[0]


def ratio_normal_instance(seed: int = 20260811, budget: int = 20_000_000) -> dict:
    """The shipped paradox: independent standard normal (Z, Y), target {Y=0}.

    The same null line is approached once by windows of Y and once by
    windows of the ratio W = Y/Z; the conditional second moment of Z tells
    the two limits apart.  The control pair approaches {Y=0} by two
    different window families of Y alone and must agree.
    """
    space = Sampler("standard-normal-pair", seed=int(seed), budget=int(budget))
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
        "schedule": Schedule(eps0=0.4, depth=4),
        "description": "E[Z^2 | {Y=0}] via Y-windows vs via (Y/Z)-windows "
                       "on independent standard normal (Z, Y)",
        "control_description": "control: two window families of one variable",
    }
