"""Pointwise conditional expectation by shrinking symmetric windows.

The conditional value at a single point y of the conditioning variable is
the limit of regular-event conditioning on (y-eps, y+eps) along a geometric
eps schedule.  A trace records every step, detects convergence under a dual
tolerance (successive difference for exact spaces, three standard errors
for samplers), optionally accelerates the limit by one Richardson step when
the empirical order is stable, and never fakes convergence: starved sampler
windows and non-contracting tails get their own verdicts.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import asdict, dataclass, field
from itertools import repeat

import numpy as np

from .errors import CondpointError, InsufficientTrace, NonApproachablePoint, UnsupportedQuery
from .spaces import (
    DensityGrid,
    Event,
    RandomVariable,
    Sampler,
    cond_expectation_event,
    is_null,
    std,
    whole_number,
    window_moments,
)
from . import quadrature as quad

CONVERGED = "Converged"
PLATEAUED = "Plateaued"
DIVERGED = "Diverged"
STARVED = "Starved"

DEFAULT_TOL = 1e-6
# Fewest sampler rows a window may hold before its trace ends Starved.
N_MIN = 100
ORDER_STABILITY = 0.4
ORDER_RANGE = (0.2, 8.0)
# Deepest schedule: 0.5**k is positive for k < MAX_DEPTH and 0.0 from there
# (below the smallest subnormal double), so no deeper window can be positive.
MAX_DEPTH = 1 - (sys.float_info.min_exp - sys.float_info.mant_dig)


@dataclass(frozen=True)
class Schedule:
    """Halving shrink schedule eps_k = eps0 * 2^-k, k < depth, an integer
    in [2, MAX_DEPTH].

    With eps0 unset, one standard deviation of the conditioning variable is
    used.  Geometric shrinkage keeps the Richardson step well-posed.
    """

    eps0: float | None = None
    depth: int = 20

    def __post_init__(self):
        whole_number(self.depth, "depth", 2, end=MAX_DEPTH + 1)
        if self.eps0 is not None and not 0.0 < self.eps0 < math.inf:  # NaN fails too
            raise ValueError("eps0 must be positive and finite")

    def epsilons(self, default_eps0: float | None) -> list[float]:
        e0 = self.eps0 if self.eps0 is not None else default_eps0
        return [e0 * 0.5**k for k in range(self.depth)]


_DEFAULT_SCHEDULE = Schedule()


# not frozen: a frozen dataclass sets each field through object.__setattr__,
# and a grid trace builds about ten of these per target
@dataclass(slots=True)
class WindowStep:
    eps: float
    estimate: float
    se: float
    n: int | None
    prob: float


@dataclass(eq=False)
class WindowTrace:
    """Record of the shrinking-window estimates at one target point."""

    target: float
    steps: list
    value: float
    extrapolated: bool
    verdict: str
    bound: str | None  # which tolerance decided: "difference" or "statistical"
    tol: float
    one_sided: str | None = None
    resolution: float | None = None  # grid pitch of the conditioning axis

    def __post_init__(self):
        eps = [s.eps for s in self.steps]
        # any eps <= 0, or any next eps >= the one before it
        if any(map(operator.le, eps, repeat(0))) or any(map(operator.ge, eps[1:], eps)):
            raise ValueError("window schedule must be strictly decreasing and positive")
        if self.verdict == CONVERGED and len(self.steps) >= 2:
            d = abs(self.steps[-1].estimate - self.steps[-2].estimate)
            if d > self.tol:
                raise ValueError("Converged verdict with final difference above tol")

    @property
    def estimates(self) -> np.ndarray:
        return np.array([s.estimate for s in self.steps])

    @property
    def epsilons(self) -> np.ndarray:
        return np.array([s.eps for s in self.steps])

    def to_json_dict(self) -> dict:
        """Every field, the steps as dicts, but ``resolution``, which no
        artifact carries yet."""
        doc = asdict(self)
        del doc["resolution"]
        return {"kind": "window_trace", **doc}


def _assess(prev, last, tol):
    """(effective tol, bound label) when the steps ``prev`` and ``last`` agree
    within it, else None."""
    eff, bound = tol, "difference"
    if last.n is not None and 3.0 * last.se > tol:
        eff, bound = 3.0 * last.se, "statistical"
    return (eff, bound) if abs(last.estimate - prev.estimate) <= eff else None


def _extrapolate(steps):
    """Richardson step from the last two estimates at stable empirical order."""
    last = steps[-1].estimate
    if len(steps) < 4:
        return last, False
    a, b, c, e = steps[-4:]
    d0, d1, d2 = b.estimate - a.estimate, c.estimate - b.estimate, last - c.estimate
    if d0 == 0.0 or d1 == 0.0 or d2 == 0.0 or d1 * d2 < 0:
        return last, False
    r_ab, r_bc = b.eps / c.eps, c.eps / e.eps
    try:
        p_ab = math.log(abs(d0 / d1)) / math.log(r_ab)
        p_bc = math.log(abs(d1 / d2)) / math.log(r_bc)
    except (ValueError, ZeroDivisionError):
        return last, False
    if abs(p_ab - p_bc) > ORDER_STABILITY or not (ORDER_RANGE[0] <= p_bc <= ORDER_RANGE[1]):
        return last, False
    return quad.richardson_limit(c.estimate, last, r_bc, p_bc), True


# family -> (y, eps) -> the ends (lo, hi) of its open window around y;
# ``eps`` is one radius or the array of a whole schedule
WINDOW_FAMILIES = {
    "symmetric": lambda y, eps: (y - eps, y + eps),
    "upper": lambda y, eps: (y, y + eps),
    "lower": lambda y, eps: (y - eps, y),
}


@dataclass(slots=True)
class _Windows:
    """One family's windows around ``y`` along a schedule.

    Iterated, it gives the (eps, event) pairs ``shrink_trace`` takes, each
    event built as its step runs; a grid reads the window ends of the whole
    schedule at once instead and builds an event only for a message.
    """

    Y: RandomVariable
    y: float
    family: str
    epsilons: list

    def event(self, eps: float) -> Event:
        if self.family == "symmetric":
            return Event.window(self.Y, self.y, eps)
        return Event.interval(self.Y, *WINDOW_FAMILIES[self.family](self.y, eps))

    def __iter__(self):
        return ((eps, self.event(eps)) for eps in self.epsilons)


def _steps(space, X: RandomVariable, pairs):
    """(step, degenerate, event) per window, from the one source of ``space``.

    A grid answers a ``_Windows`` schedule from one clipped-integral call on
    X's cached pair (``window_moments``), the mass and the x-moment of every
    window, and builds a step's event only when the step is degenerate, the
    one case whose message names it on a grid.  When X has no pair, its
    error waits for the first step that needs the x-moment, as a degenerate
    step raises first.  Any other space or schedule conditions on one event per
    step, lazily.
    """
    if not (isinstance(space, DensityGrid) and isinstance(pairs, _Windows)):
        for eps, event in pairs:
            r = cond_expectation_event(space, X, event)
            yield WindowStep(float(eps), r.value, r.se, r.n, r.prob), r.degenerate, event
        return
    k = space.axes.index(pairs.Y.coord)
    epsilons = np.array(pairs.epsilons, dtype=float)
    lo, hi = WINDOW_FAMILIES[pairs.family](pairs.y, epsilons)
    try:
        rows, failure = window_moments(space, X, k, lo, hi).tolist(), None
    except CondpointError as exc:
        rows, failure = [(p, None) for p, _ in window_moments(space, None, k, lo, hi).tolist()], exc
    for eps, (p, moment) in zip(epsilons.tolist(), rows):
        if is_null(space, p):
            yield WindowStep(eps, 0.0, 0.0, None, p), True, pairs.event(eps)
            continue
        if failure is not None:
            raise failure
        yield WindowStep(eps, moment / p, 0.0, None, p), False, None


def shrink_trace(space, X: RandomVariable, pairs, tol: float = DEFAULT_TOL,
                 target: float = 0.0, resolution: float | None = None,
                 one_sided: str | None = None, stop_early: bool = True) -> WindowTrace:
    """Drive a shrinking sequence of positive-probability events.

    ``pairs`` yields (eps, event) in strictly decreasing eps.  On a grid or
    atom space, any event whose mass is null (``is_null``) raises
    NonApproachablePoint, at whatever step it comes, after adequate steps
    too.  On a sampler, a null event or one below ``N_MIN`` rows raises
    NonApproachablePoint only as the first step; after adequate steps it
    ends the trace with the Starved verdict instead of a noise-dominated
    value.  With ``stop_early`` unset the full schedule runs and convergence is
    judged on the final pair of steps, which keeps multi-family comparisons
    on one shared eps grid.
    """
    steps: list[WindowStep] = []
    ran_dry = False
    for step, degenerate, event in _steps(space, X, pairs):
        if degenerate or (step.n is not None and step.n < N_MIN):
            # a sampler window starved after some steps ends the trace
            if step.n is not None and steps:
                ran_dry = True
                break
            raise NonApproachablePoint(
                f"window {event.name!r} at target {target!r} has mass {step.prob!r}"
                if degenerate else
                f"window {event.name!r} holds {step.n} samples, below n_min={N_MIN}")
        steps.append(step)
        if stop_early and len(steps) >= 2 and _assess(steps[-2], step, tol):
            break
    if not steps:
        raise NonApproachablePoint(f"no adequate window at target {target!r}")
    agreed = _assess(steps[-2], steps[-1], tol) if len(steps) >= 2 else None
    eff_tol, bound = agreed or (tol, None)
    if agreed:
        verdict = CONVERGED
    elif ran_dry:
        verdict = STARVED
    elif len(steps) >= 4:
        d = np.abs(np.diff([s.estimate for s in steps]))
        growing = d[-1] > d[-2] > d[-3] and d[-1] > d[0]
        verdict = DIVERGED if growing else PLATEAUED
    else:
        verdict = PLATEAUED
    if verdict in (CONVERGED, PLATEAUED) and bound != "statistical":
        value, extrapolated = _extrapolate(steps)
    else:
        value, extrapolated = steps[-1].estimate, False
    return WindowTrace(target=float(target), steps=steps, value=float(value),
                       extrapolated=extrapolated, verdict=verdict, bound=bound,
                       tol=float(eff_tol), one_sided=one_sided, resolution=resolution)


def _conditioning_geometry(space, Y: RandomVariable):
    """(axis range, pitch) of the conditioning variable, when it is a grid axis."""
    if not isinstance(space, DensityGrid):
        return None, None
    if Y.coord not in space.axes:
        raise UnsupportedQuery(
            "window conditioning on a grid requires a coordinate variable; "
            f"{Y.name!r} is not one of the axes {space.axes!r}")
    k = space.axes.index(Y.coord)
    return space.ranges[k], space.pitches[k]


def window_estimate(space, X: RandomVariable, Y: RandomVariable, y: float,
                    schedule: Schedule | None = None, tol: float = DEFAULT_TOL,
                    stop_early: bool = True, family: str = "symmetric") -> WindowTrace:
    """E[X | Y = y] as the limit of E[X | Y in (y-eps, y+eps)].

    ``family`` selects the shrinking neighborhoods: "symmetric" (the tested
    default; switches to a one-sided family automatically at a boundary of a
    grid support, noted on the trace), or "upper"/"lower" to force windows
    opening to one side of y.  ``stop_early=False`` runs the whole schedule
    even after the tolerance is met, e.g. for plotting or order measurement.

    On a sampler the trace keeps no rows and streams twice: once for the
    default ``eps0`` (``std``, skipped when ``Schedule.eps0`` is set), and
    once for every window of the schedule (``Sampler.cond_each``), whose
    stored answers the trace then reads.  Each pass splits its blocks over
    worker threads.
    """
    if family not in WINDOW_FAMILIES:
        raise ValueError(f"unknown window family {family!r}")
    if not math.isfinite(y):
        raise NonApproachablePoint(f"target {y!r} is not a finite number")
    schedule = schedule or _DEFAULT_SCHEDULE
    rng, pitch = _conditioning_geometry(space, Y)
    default_eps0 = None
    if schedule.eps0 is None:
        default_eps0 = std(space, Y)
        if default_eps0 == 0.0:
            default_eps0 = 1.0
    epsilons = schedule.epsilons(default_eps0)
    if rng is not None:
        lo, hi = rng
        if y < lo or y > hi:
            raise NonApproachablePoint(f"{y!r} lies outside the {Y.name!r} range {rng!r}")
        if family == "symmetric":
            if y - lo < pitch:
                family = "upper"
            elif hi - y < pitch:
                family = "lower"
    y = float(y)
    windows = _Windows(Y, y, family, epsilons)
    if isinstance(space, Sampler):
        windows = list(windows)
        space.cond_each(X, [[event for _, event in windows]])
    return shrink_trace(space, X, windows, tol=tol,
                        target=y, resolution=pitch,
                        one_sided=None if family == "symmetric" else family,
                        stop_early=stop_early)


@dataclass(eq=False)
class PointwiseCondExp:
    """Window traces tabulated over a grid of conditioning values.

    Nodes whose trace cannot be formed (a window outside the support, a
    non-finite node) are kept as flags, never silently interpolated.  The
    table holds its traces only, not the space they were read from.
    """

    X: RandomVariable
    Y: RandomVariable
    y_grid: np.ndarray
    traces: list
    flags: list = field(default_factory=list)

    @property
    def values(self) -> np.ndarray:
        return np.array([t.value if t is not None else math.nan for t in self.traces])

    @property
    def verdicts(self) -> list:
        return [t.verdict if t is not None else "NonApproachablePoint" for t in self.traces]

    def to_json_dict(self) -> dict:
        return {
            "kind": "window_grid",
            "x": self.X.name,
            "y": self.Y.name,
            "grid": [float(v) for v in self.y_grid],
            "values": [None if t is None else float(t.value) for t in self.traces],
            "verdicts": self.verdicts,
            "traces": [None if t is None else t.to_json_dict() for t in self.traces],
        }


def evaluate_on_grid(space, X: RandomVariable, Y: RandomVariable, y_grid,
                     schedule: Schedule | None = None,
                     tol: float = DEFAULT_TOL) -> PointwiseCondExp:
    """Tabulate window traces over y_grid.

    Sampler evaluations draw an independent child stream per node, derived
    from (space seed, node index), so nodes share no sample noise.  Nodes
    run one after another; each sampler node streams twice, as
    ``window_estimate`` does (once with ``Schedule.eps0`` set), keeps no
    rows, and splits each pass's blocks over worker threads.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    traces = []
    flags = []
    for i, y in enumerate(y_grid):
        node_space = space.substream(i) if isinstance(space, Sampler) else space
        try:
            traces.append(window_estimate(node_space, X, Y, float(y),
                                          schedule=schedule, tol=tol))
        except NonApproachablePoint as exc:
            traces.append(None)
            flags.append((float(y), str(exc)))
    return PointwiseCondExp(X, Y, y_grid, traces, flags)


def convergence_order(trace: WindowTrace) -> float:
    """Empirical order: least-squares slope of log|e_k - e_last| vs log eps_k.

    Steps too close to the final estimate to carry signal are dropped: below
    the roundoff floor, below three combined standard errors (samplers), or
    inside the mesh resolution (grids, eps < 4 * pitch) where the surrogate
    interpolant plateaus.  An all-floor trace means a constant limit curve
    and reports +inf.
    """
    if len(trace.steps) < 3:
        raise InsufficientTrace("need at least 3 estimates to fit an order")
    e = trace.estimates
    eps = trace.epsilons
    if not np.all(np.isfinite(e)):
        raise InsufficientTrace("non-finite estimates in trace")
    ref = e[-1]
    r = np.abs(e[:-1] - ref)
    floor = 1e3 * np.finfo(float).eps * max(1.0, abs(ref))
    usable = r > floor
    if trace.steps[-1].n is not None:
        ses = np.array([s.se for s in trace.steps])
        usable &= r > 3.0 * (ses[:-1] + ses[-1])
    if trace.resolution is not None:
        usable &= eps[:-1] >= 4.0 * trace.resolution
    if not np.any(usable):
        if np.all(r <= floor):
            return math.inf
        raise InsufficientTrace("no usable steps above the noise floor")
    if int(usable.sum()) < 3:
        if np.all(r[~usable] <= floor):
            return math.inf
        raise InsufficientTrace("fewer than 3 usable steps to fit an order")
    return quad.loglog_slope(eps[:-1][usable], r[usable])
