"""Probability spaces, random variables, and events at desk scale.

Three space variants share one estimator API:

* ``DiscreteAtoms``   -- finite weighted atoms, exact arithmetic via fsum;
* ``DensityGrid``     -- density values on a uniform node grid over n axes,
  trapezoid quadrature, window events integrated exactly against the
  piecewise-linear interpolant along their axis from one cached (f, x*f)
  marginal pair per variable and axis; ``DensityGrid1D`` and
  ``DensityGrid2D`` are its constructors for one axis and for a rectangle;
* ``Sampler``         -- a seeded Monte Carlo stream of named columns, drawn
  block by block by one draw function per family and never kept by a
  query; every estimate carries a standard error and an effective sample
  count.

Every space reads variables and events through one ``values_of`` and one
``indicator``; they differ only in ``_apply``, which applies a function once
per atom on discrete spaces and once to the "frame", a dict of named
coordinate arrays, on grids and samplers.  A function that fails is an
UndefinedPredicate.  Values are memoised on the space while their variable
lives (a coordinate's under its axis name, for the life of the space), and
a sum, difference, product or negation reads its operands'.
Events are atom sets, predicates, unions of open intervals of a random
variable, or complements of those.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import threading
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import quadrature as quad
from .errors import EmptyRange, NonIntegrable, UndefinedPredicate

# Below this mass, grid and sampler events are treated as null: floating
# point cannot witness exact nullity off the discrete variant.
PROB_FLOOR = 1e-12


def is_null(space, p: float) -> bool:
    """Whether the mass ``p`` is null on ``space``: zero, or below its kind's
    ``null_floor``.  Every nullity decision in the package is this one."""
    return p <= 0.0 or p < space.null_floor


def _fsum(terms) -> float:
    return math.fsum(float(t) for t in terms)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so no caller can make the cache stale."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Estimate:
    """Point value with a statistical standard error.

    Exact variants (atoms, grids) report ``se = 0``; sampler estimates carry
    the Monte Carlo error and the number of rows behind the value.
    """

    value: float
    se: float = 0.0
    n: int | None = None

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class ConditionalEstimate(Estimate):
    """Result of conditioning on an event: an estimate with the event's mass.

    ``degenerate`` marks the defined-by-convention branch where the event has
    (floored) zero probability and the value is 0.
    """

    prob: float = 0.0
    degenerate: bool = False


# ---------------------------------------------------------------------------
# Random variables


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A named evaluation rule mapping points of a space to reals.

    ``fn`` receives the space's frame: the atom on discrete spaces, a dict of
    named coordinate arrays on grids and samplers.  ``coord`` marks pure
    coordinate extractors; interval events on such variables use the exact
    clipped-quadrature path on grids.  An arithmetic combination records its
    operator ``op`` and its ``operands`` (variables, events or constants), so
    ``values_of`` can apply ``op`` to their memoised values and indicators.
    """

    name: str
    fn: Callable
    coord: str | None = None
    op: Callable | None = None
    operands: tuple = ()

    def __call__(self, arg):
        return self.fn(arg)

    def _lift(self, other, op, sym):
        label = other.name if isinstance(other, RandomVariable) else repr(other)
        return _combination(f"({self.name}{sym}{label})", op, self, other)

    def __add__(self, other):
        return self._lift(other, operator.add, "+")

    __radd__ = __add__

    def __sub__(self, other):
        return self._lift(other, operator.sub, "-")

    def __mul__(self, other):
        return self._lift(other, operator.mul, "*")

    __rmul__ = __mul__

    def __neg__(self):
        return _combination(f"(-{self.name})", operator.neg, self)


def _combination(name: str, op: Callable, *operands) -> RandomVariable:
    """``op`` applied at each point to ``operands``: a variable's value, an
    event's membership, or a constant."""
    def fn(arg):
        return op(*(x.fn(arg) if isinstance(x, RandomVariable) else
                    x._eval(arg) if isinstance(x, Event) else x for x in operands))

    return RandomVariable(name, fn, op=op, operands=operands)


def coordinate(name: str) -> RandomVariable:
    """The coordinate extractor for a named axis or sample column."""
    return RandomVariable(name, lambda frame: frame[name], coord=name)


# ---------------------------------------------------------------------------
# Events


@dataclass(frozen=True, eq=False)
class Event:
    """A measurable set: atom subset, predicate, interval union, or complement."""

    name: str
    kind: str  # "atoms" | "pred" | "intervals" | "complement"
    atoms: frozenset | None = None
    pred: Callable | None = None
    rv: RandomVariable | None = None
    pieces: tuple = ()
    base: "Event | None" = None

    @classmethod
    def from_atoms(cls, atoms, name: str | None = None) -> "Event":
        atoms = frozenset(atoms)
        return cls(name or f"atoms{sorted(map(repr, atoms))}", "atoms", atoms=atoms)

    @classmethod
    def where(cls, pred: Callable, name: str) -> "Event":
        return cls(name, "pred", pred=pred)

    @classmethod
    def interval(cls, rv: RandomVariable, lo: float, hi: float, name: str | None = None) -> "Event":
        return cls(name or f"{{{lo!r}<{rv.name}<{hi!r}}}", "intervals",
                   rv=rv, pieces=((float(lo), float(hi)),))

    @classmethod
    def window(cls, rv: RandomVariable, center: float, eps: float) -> "Event":
        return cls.interval(rv, center - eps, center + eps,
                            name=f"{{|{rv.name}-{center!r}|<{eps!r}}}")

    def complement(self, name: str | None = None) -> "Event":
        return Event(name or f"not({self.name})", "complement", base=self)

    def _eval(self, arg):
        """Membership at a frame (arrays) or a single atom (scalar bool)."""
        if self.kind == "atoms":
            return arg in self.atoms
        if self.kind == "pred":
            return self.pred(arg)
        if self.kind == "intervals":
            return _interval_mask(self.rv.fn(arg), self.pieces)
        return np.logical_not(self.base._eval(arg))

    def intersect(self, other: "Event", name: str | None = None) -> "Event":
        """Intersection, staying on the exact interval path when possible."""
        label = name or f"({self.name})&({other.name})"
        if self.kind == "atoms" and other.kind == "atoms":
            return Event(label, "atoms", atoms=self.atoms & other.atoms)
        if (self.kind == "intervals" and other.kind == "intervals"
                and _same_variable(self.rv, other.rv)):
            pieces = []
            for a_lo, a_hi in self.pieces:
                for b_lo, b_hi in other.pieces:
                    lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
                    if lo < hi:
                        pieces.append((lo, hi))
            return Event(label, "intervals", rv=self.rv, pieces=tuple(sorted(pieces)))
        a, b = self, other
        return Event(label, "pred", pred=lambda arg: np.logical_and(a._eval(arg), b._eval(arg)))


def _same_variable(a: RandomVariable, b: RandomVariable) -> bool:
    return a is b or (a.coord is not None and a.coord == b.coord)


def union_events(events, name: str | None = None) -> Event:
    """Union of events: exact for all atom sets or all intervals of one
    variable, a structural predicate otherwise, as in ``Event.intersect``."""
    events = list(events)
    if not events:
        raise ValueError("empty union has no carrier; handle it at the call site")
    label = name or "|".join(e.name for e in events)
    if all(e.kind == "atoms" for e in events):
        return Event(label, "atoms", atoms=frozenset().union(*(e.atoms for e in events)))
    rv = events[0].rv
    if all(e.kind == "intervals" and _same_variable(e.rv, rv) for e in events):
        pieces = sorted(p for e in events for p in e.pieces)
        merged_pieces: list[tuple[float, float]] = []
        for lo, hi in pieces:
            # touching open pieces stay apart: their shared endpoint may be an atom
            if merged_pieces and lo < merged_pieces[-1][1]:
                merged_pieces[-1] = (merged_pieces[-1][0], max(hi, merged_pieces[-1][1]))
            else:
                merged_pieces.append((lo, hi))
        return Event(label, "intervals", rv=rv, pieces=tuple(merged_pieces))
    return Event(label, "pred", pred=lambda arg: functools.reduce(
        np.logical_or, (e._eval(arg) for e in events)))


def _inside(event: Event, hull: Event) -> bool:
    """Whether ``event`` and ``hull`` are interval events of one variable,
    each piece of ``event`` within a piece of ``hull``."""
    return (event.kind == hull.kind == "intervals" and _same_variable(event.rv, hull.rv)
            and all(any(a <= lo and hi <= b for a, b in hull.pieces)
                    for lo, hi in event.pieces))


def complement_within(space, event: Event, name: str | None = None) -> Event:
    """Complement of an event, staying on an exact event kind when possible.

    Every event on a discrete space complements against the atom list, so
    the endpoints of an open interval keep their atoms; elsewhere
    single-variable interval events complement to the outer interval pieces.
    Anything else falls back to a structural complement node.
    """
    label = name or f"not({event.name})"
    if isinstance(space, DiscreteAtoms):
        return Event(label, "atoms", atoms=frozenset(space.members(event.complement())))
    if event.kind == "intervals":
        edges = [-math.inf]
        for lo, hi in sorted(event.pieces):
            edges.extend((lo, hi))
        edges.append(math.inf)
        pieces = tuple((a, b) for a, b in zip(edges[::2], edges[1::2]) if a < b)
        return Event(label, "intervals", rv=event.rv, pieces=pieces)
    return event.complement(label)


# ---------------------------------------------------------------------------
# Space variants
#
# values_of, indicator, moment and cond are bound by name in each class body,
# grid subclasses too: the benchmark tracer patches each class's own attribute.


def _cache_key(rv: RandomVariable | None) -> tuple:
    """(cache key, owner) of a variable: a coordinate by its axis name, for
    the life of the space, so every extractor of one axis shares its
    entries; any other variable by id, while it lives; None for the mass."""
    if rv is None:
        return None, None
    return (rv.coord, None) if rv.coord is not None else (id(rv), rv)


def _evict(space_ref, key, _dead) -> None:
    space = space_ref()
    if space is not None:
        space._cache.pop(key, None)


def _memo(space, key, owner, build: Callable) -> tuple:
    """The result tuple of ``build()``, cached on ``space`` as ``(slot, *result)``.

    ``slot`` holds ``owner``, the variable or event keyed by id (or None),
    weakly; its callback drops the entry when ``owner`` dies, so an id is never
    reused while its entry lives.  The callback holds the space weakly too, so
    no cycle keeps a dead space's arrays alive.
    """
    hit = space._cache.get(key)
    if hit is None:
        slot = None if owner is None else weakref.ref(
            owner, functools.partial(_evict, weakref.ref(space), key))
        hit = space._cache[key] = (slot, *build())
    return hit[1:]


def _evaluate(what: str, fn: Callable, frame, shape: tuple, dtype=float) -> np.ndarray:
    """``fn(frame)`` as an array broadcast to ``shape``; x/0 and 0/0 stay silent.
    A predicate (``dtype`` bool) must return booleans.  This is the one place
    where a failing variable or predicate becomes an UndefinedPredicate naming ``what``."""
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.broadcast_to(np.asarray(fn(frame), dtype=None if dtype is bool else dtype),
                                  shape)
    except Exception as exc:
        raise UndefinedPredicate(f"{what} failed: {type(exc).__name__}: {exc}") from exc
    if out.dtype != dtype:
        raise UndefinedPredicate(f"{what} is not boolean")
    return out


def _frame_apply(self, what: str, fn: Callable, dtype=float) -> np.ndarray:
    """``fn`` at every point of a grid or sampler: once, on the whole frame."""
    frame = self.frame()
    return _evaluate(what, fn, frame, next(iter(frame.values())).shape, dtype)


def _values_of(self, rv: RandomVariable) -> np.ndarray:
    """``rv`` at every point, read-only and memoised; a coordinate stays a
    broadcast view, and a combination applies its operator to its operands'
    memoised values and events' indicators."""
    def build():
        if rv.op is None:
            return (self._apply(f"variable {rv.name!r}", rv.fn),)
        args = [self.values_of(x) if isinstance(x, RandomVariable) else
                self.indicator(x) if isinstance(x, Event) else x for x in rv.operands]
        return (_evaluate(f"variable {rv.name!r}", lambda a: rv.op(*a), args, args[0].shape),)

    key, owner = _cache_key(rv)
    return _memo(self, ("rv", key), owner, build)[0]


def _interval_mask(v, pieces):
    """Points of ``v``, an array or one value, inside any open piece; an
    array mask is built in place piece by piece."""
    out = None
    for lo, hi in pieces:
        piece = np.less(lo, v)
        piece &= np.less(v, hi)
        if out is None:
            out = piece
        else:
            out |= piece
    return np.zeros(np.shape(v), dtype=bool) if out is None else out


def _indicator(self, event: Event) -> np.ndarray:
    """Membership of every point: an interval tests its variable's memoised
    values, an atom set membership (undefined on a frame), a predicate itself."""
    if event.kind == "complement":
        return ~self.indicator(event.base)
    if event.kind == "intervals":
        return _interval_mask(self.values_of(event.rv), event.pieces)
    test = event.atoms.__contains__ if event.kind == "atoms" else event.pred
    return self._apply(f"event {event.name!r}", test, bool)


def _ratio_cond(self, rv: RandomVariable, event: Event) -> ConditionalEstimate:
    """E[1_A X] / P(A); the degenerate branch when ``is_null`` holds for P(A)."""
    p = self.moment(None, event).value
    if is_null(self, p):
        return ConditionalEstimate(0.0, prob=p, degenerate=True)
    return ConditionalEstimate(self.moment(rv, event).value / p, prob=p)


@dataclass(eq=False)
class DiscreteAtoms:
    """Finite weighted atom space. Weights are numbers >= 0 summing to 1 within 1e-12.

    Zero-weight atoms are allowed; they model exactly-null events while
    keeping their points representable.
    """

    atoms: tuple
    weights: np.ndarray
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)
    # the mass below which an event is null (``is_null``), and how closely
    # ``partition.verify_cond_exp``'s identity must hold, per space kind
    null_floor = 0.0  # exact weights witness nullity: only a zero mass is null
    identity_tol = 1e-12  # both sides of the identity are fsums of exact weights

    def __post_init__(self):
        self.atoms = tuple(self.atoms)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.atoms),):
            raise ValueError("one weight per atom required")
        if not np.all(self.weights >= 0):  # NaN fails this test too
            raise ValueError("atom weights must be non-negative numbers")
        total = _fsum(self.weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {total!r}, not 1")

    @classmethod
    def uniform(cls, atoms):
        n = len(atoms)
        return cls(tuple(atoms), np.full(n, 1.0 / n))

    def _apply(self, what: str, fn: Callable, dtype=float) -> np.ndarray:
        """``fn`` at every atom, each value converted as ``float()`` or ``bool()`` would."""
        n = len(self.atoms)
        return _evaluate(what, lambda atoms: np.fromiter(map(fn, atoms), dtype, n),
                         self.atoms, (n,), dtype)

    values_of = _values_of
    indicator = _indicator

    def members(self, event: Event) -> list:
        ind = self.indicator(event)
        return [a for a, m in zip(self.atoms, ind) if m]

    def moment(self, rv: RandomVariable | None, event: Event | None) -> Estimate:
        """E[1_A X]; with rv None the event mass, with event None the full mean."""
        w = self.weights if event is None else np.where(self.indicator(event), self.weights, 0.0)
        live = w != 0.0
        if rv is None:
            return Estimate(_fsum(w[live]))
        x = self.values_of(rv)[live]
        if not np.all(np.isfinite(x)):
            raise NonIntegrable(f"{rv.name} is not finite on atoms with mass")
        return Estimate(_fsum(w[live] * x))

    cond = _ratio_cond


def _axis_weights(space, i: int) -> np.ndarray:
    """Trapezoid weights of the nodes of axis ``i``: one pitch inside and
    half a pitch at both ends."""
    w = np.full(space.grid[i].shape[0], space.pitches[i])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _node_weights(space) -> np.ndarray:
    """Trapezoid weight of every grid node: the outer product of the per-axis weights."""
    return functools.reduce(np.multiply.outer,
                            (_axis_weights(space, i) for i in range(len(space.axes))))


def _axis_values(space, rv: RandomVariable, j: int) -> np.ndarray:
    """``rv`` at the nodes of axis ``j``, the one axis it varies along; not
    cached, so a non-finite node raises NonIntegrable at each call."""
    nodes = space.grid[j]
    x = _evaluate(f"variable {rv.name!r}", rv.fn, {space.axes[j]: nodes}, nodes.shape)
    if not np.all(np.isfinite(x)):
        raise NonIntegrable(f"{rv.name} is not finite on the grid")
    return x


def _grid_product(space, rv: RandomVariable | None) -> np.ndarray:
    """Node values of x*f, or f itself when ``rv`` is None; not cached, so a
    variable with a non-finite node raises NonIntegrable at each call."""
    if rv is None:
        return space.values
    x = space.values_of(rv)
    if not np.all(np.isfinite(x)):
        raise NonIntegrable(f"{rv.name} is not finite on the grid")
    return x * space.values


def _grid_marginal(space, rv: RandomVariable | None, k: int) -> tuple:
    """(pair, its antiderivative) of ``rv`` along axis ``k``; cached.

    Both are (nodes, 2) over the nodes of axis ``k``: column 0 is the
    marginal of f, column 1 that of x*f, each integrated over every axis but
    ``k``, with x = 1 for the mass (rv None).  The mass marginal is one
    ``einsum`` of f with the trapezoid weights of every other axis, cached
    as the mass pair before the x*f column is built, so it is cached even
    when ``rv`` fails.  A variable along one axis ``j``
    (``_axis_of``) scales the mass marginal by its node values when ``j`` is
    ``k`` and folds them into axis ``j``'s weights otherwise, so it builds
    no array the size of the grid; any other variable contracts its x*f
    product.  A window along ``k`` and an interval moment clip the pair
    (``window_moments``), a full mean integrates column 1, the ratio route
    of ``density`` interpolates column 1 and ``pushforward`` reads column 0.
    """
    def build():
        f, j = space.values, _axis_of(space, rv)
        mass = None if rv is None else _grid_marginal(space, None, k)[0][:, 0]
        if j == k:
            marg = _axis_values(space, rv, j) * mass
        else:
            weights = [_axis_weights(space, i) for i in range(len(space.axes))]
            if j is not None:
                weights[j] *= _axis_values(space, rv, j)
            elif rv is not None:
                f = _grid_product(space, rv)
            operands = [f, range(f.ndim)]
            for i, w in enumerate(weights):
                if i != k:
                    operands += [w, [i]]
            marg = np.einsum(*operands, [k])
        # both columns of one (2, nodes) array, so each column is contiguous
        cols = np.stack((marg if mass is None else mass, marg))
        return _frozen(cols.T), _frozen(quad.cumulative(cols, space.pitches[k]).T)

    key, owner = _cache_key(rv)
    return _memo(space, ("marg", key, k), owner, build)


def _axis_of(space, rv: RandomVariable | None) -> int | None:
    """The one grid axis that ``rv`` varies along: a coordinate's, or the
    common axis of an arithmetic combination of such variables and real
    constants; None for anything else."""
    if rv is None:
        return None
    if rv.coord is not None:
        return space.axes.index(rv.coord) if rv.coord in space.axes else None
    if rv.op is None or not all(isinstance(x, (RandomVariable, numbers.Real))
                                for x in rv.operands):
        return None
    axes = {_axis_of(space, x) for x in rv.operands if isinstance(x, RandomVariable)}
    return axes.pop() if len(axes) == 1 else None


def window_moments(space, rv: RandomVariable | None, k: int, lo, hi) -> np.ndarray:
    """(P(A), E[1_A X]) on a grid for each window A = (lo, hi) along axis
    ``k`` at once, as the two columns of one array: one clipped-integral
    call on the cached pair (``_grid_marginal``); with rv None both columns
    are the mass.  ``lo`` and ``hi`` are arrays of window ends.  Each value
    is the sum of one piece started at 0, as an event's moment is, so a -0.0
    integral reads 0.0.
    """
    pair, cum = _grid_marginal(space, rv, k)
    return quad.clip_integral(space.grid[k], pair, lo, hi, cum) + 0.0


def _grid_moment(self, rv: RandomVariable | None, event: Event | None) -> Estimate:
    """E[1_A X]; with rv None the event mass, with event None the full mean.

    The full mean and interval events on an axis integrate x*f by the
    trapezoid rule over the other axes first (column 1 of the cached pair),
    then along the remaining axis: whole for the full mean, exactly against
    the piecewise-linear interpolant for a window.  A variable that varies
    along one axis only has its full mean from that axis's nodes and the
    cached mass column, in O(nodes).  Other events fall back to
    node-indicator quadrature of x*f.
    """
    if event is None:
        k = _axis_of(self, rv)
        if k is None:  # the mass off the last axis, the conditioning one; x*f off axis 0
            k = len(self.axes) - 1 if rv is None else 0
            return Estimate(float(quad.integrate(_grid_marginal(self, rv, k)[0][:, 1],
                                                 self.pitches[k])))
        return Estimate(float(quad.integrate(
            _axis_values(self, rv, k) * _grid_marginal(self, None, k)[0][:, 0],
            self.pitches[k])))
    if event.kind == "complement":
        return Estimate(self.moment(rv, None).value - self.moment(rv, event.base).value)
    if event.kind == "intervals" and event.rv.coord in self.axes:
        lo, hi = np.array(event.pieces, dtype=float).reshape(-1, 2).T
        pieces = window_moments(self, rv, self.axes.index(event.rv.coord), lo, hi)[:, 1]
        return Estimate(float(sum(pieces.tolist())))
    # Node-indicator fallback: O(pitch) accuracy at region boundaries.
    g = _grid_product(self, rv)
    return Estimate(float(np.sum(_node_weights(self) * g * self.indicator(event))))


@dataclass(eq=False)
class DensityGrid:
    """Density values on a uniform node grid over n axes.

    ``axes`` names the coordinates, ``ranges`` holds (lo, hi) per axis, and
    ``values[i, j, ...]`` is the density at ``(grid[0][i], grid[1][j], ...)``,
    where ``grid`` holds the uniform nodes of each axis and ``pitches`` their
    spacings.  The density must be non-negative, not NaN, and integrate to a
    finite mass within ``quad_tol``, a finite number >= 0, of 1 under the
    trapezoid rule; the defect is recorded in ``meta``.
    """

    axes: tuple
    ranges: tuple
    values: np.ndarray
    quad_tol: float = 1e-8
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)
    null_floor = PROB_FLOOR  # off atoms no float mass witnesses exact nullity
    identity_tol = 1e-6  # interpolation smears a discontinuous candidate near cell cuts

    def __post_init__(self):
        self.axes = tuple(self.axes)
        # a read-only view: a write through it would leave every cached marginal stale
        self.values = _frozen(np.asarray(self.values, dtype=float).view())
        self.quad_tol = finite_number(self.quad_tol, "quad_tol", 0.0)
        if self.values.ndim != len(self.ranges):
            raise ValueError("density values need exactly one axis per range")
        if any(n < 2 or hi <= lo for (lo, hi), n in zip(self.ranges, self.values.shape)):
            raise ValueError("grid needs at least 2 nodes and hi > lo")
        self.grid = tuple(np.linspace(lo, hi, n)
                          for (lo, hi), n in zip(self.ranges, self.values.shape))
        # from the range, as linspace's step: two node values carry their roundoff
        self.pitches = tuple(float(hi - lo) / (n - 1)
                             for (lo, hi), n in zip(self.ranges, self.values.shape))
        if not self.values.min() >= 0:  # NaN fails this test too
            raise ValueError("density values must be non-negative numbers")
        # the mass moment(None, None) reads; an inf node fails the check, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            defect = _grid_moment(self, None, None).value - 1.0
        if not math.isfinite(defect) or abs(defect) > self.quad_tol:  # an infinite node too
            raise ValueError(f"density integrates to 1{defect:+e}, beyond quad_tol")
        self.meta.setdefault("normalization_defect", defect)

    def frame(self) -> dict:
        """Coordinate of every node, one array per axis name: read-only broadcast
        views of the axis nodes, built per call (no per-node copies)."""
        views = np.meshgrid(*self.grid, indexing="ij", copy=False)
        return {name: _frozen(view) for name, view in zip(self.axes, views)}

    _apply = _frame_apply
    values_of, indicator, moment, cond = _values_of, _indicator, _grid_moment, _ratio_cond


class DensityGrid1D(DensityGrid):
    """Density values on a uniform 1D node grid over [lo, hi]: the one-axis
    ``DensityGrid``."""

    def __init__(self, axis, lo, hi, values, quad_tol=1e-8):
        super().__init__((axis,), ((lo, hi),), values, quad_tol)

    # bound again: the tracer patches each class's own attribute
    values_of, indicator, moment, cond = _values_of, _indicator, _grid_moment, _ratio_cond


class DensityGrid2D(DensityGrid):
    """Joint density values on a uniform rectangle grid: the two-axis
    ``DensityGrid``."""

    # bound again: the tracer patches each class's own attribute
    values_of, indicator, moment, cond = _values_of, _indicator, _grid_moment, _ratio_cond


# Rows per block of a draw stream.  Block i of a sampler is drawn from its
# own generator, keyed by i (``_pass``), so this size is part of the
# stream's definition: changing it changes every sampler number.  Small
# blocks keep the per-block temporaries, which stay in malloc's per-thread
# pools, small: with 2^20-row blocks the shipped scenarios peaked at 121-132
# MiB against 89-91 MiB.
DRAW_BLOCK = 1 << 16

# Worker threads of a streamed pass, which draws a sampler's blocks on them.
# numpy releases the GIL while it draws, and a pass holds one block of rows
# per worker, not a column, so this bounds the CPU a pass takes, not its
# memory.
DRAW_THREADS = 2

# The spawn-key entry that marks a block's generator: block i of a sampler
# with spawn key ``spawn`` is drawn from ``spawn + (_BLOCK_KEY, i)``.
# numpy spells a key entry in 32-bit words; a substream index is one word,
# below this marker, so no substream's key is a block's key.
_BLOCK_KEY = 1 << 32

# The largest sampler budget, 2^48 rows: at most _BLOCK_KEY blocks, so every
# block index is one spawn-key word, as every substream index is.
MAX_BUDGET = _BLOCK_KEY * DRAW_BLOCK


def _standard_normal_pair(rng, out, params):
    return {"z": rng.standard_normal(out=out[0]), "y": rng.standard_normal(out=out[1])}


def _bivariate_normal(rng, out, params):
    # s * noise + rho * z in place: IEEE sums commute, so this is rho * z + s * noise
    rho = float(params["rho"])
    z = rng.standard_normal(out=out[0])
    y = rng.standard_normal(out=out[1])
    y *= math.sqrt(1.0 - rho * rho)
    y += rho * z
    return {"z": z, "y": y}


def _gaussian_sum(rng, out, params):
    x = rng.standard_normal(out=out[0])
    x *= math.sqrt(float(params["var_x"]))
    eps = rng.standard_normal(out=out[1])
    eps *= math.sqrt(float(params["var_noise"]))
    return {"x": x, "eps": eps, "y": x + eps}


def _uniform_square(rng, out, params):
    return {"z": rng.random(out=out[0]), "y": rng.random(out=out[1])}


# The parameters of each named density family, on grids and in draws alike:
# name -> (default, lowest, highest admissible value), None where unbounded.
# A grid ``normal`` also gives each ``mixture`` component's mean and var.
FAMILY_PARAMS = {
    "normal": {"mean": (0.0, None, None), "var": (1.0, 0.0, None)},
    "bivariate-normal": {"rho": (0.0, -1.0, 1.0)},
    "gaussian-sum": {"var_x": (1.0, 0.0, None), "var_noise": (1.0, 0.0, None)},
}


def finite_number(value, what: str, low: float | None = None, strict: bool = False,
                  high: float | None = None) -> float:
    """``float(value)`` when it is finite and, with ``low``, >= ``low`` (> when
    ``strict``) and, with ``high`` too, <= ``high``; ValueError naming ``what``
    and the range otherwise."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None
    if (not math.isfinite(x) or low is not None and (x < low or strict and x == low)
            or high is not None and x > high):
        bound = ("" if low is None else f" in [{low:g}, {high:g}]" if high is not None
                 else f" {'>' if strict else '>='} {low:g}")
        raise ValueError(f"{what} must be a finite number{bound}, got {value!r}")
    return x


def whole_number(value, what: str, low: int = 0, end: int | None = None) -> int:
    """``int(value)`` when it is an integer, not a bool, >= ``low`` and, with
    ``end``, below ``end``; ValueError naming ``what`` and the range otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low
            or end is not None and value >= end):
        bound = f">= {low}" if end is None else f"in [{low}, {end})"
        raise ValueError(f"{what} must be an integer {bound}, got {value!r}")
    return int(value)


def family_params(family: str, given: dict, what: str) -> dict:
    """``family``'s parameters in FAMILY_PARAMS: each one in ``given`` a
    finite number in its range (``finite_number``, named "``what`` key"),
    each one missing its default."""
    return {key: finite_number(given[key], f"{what} {key}", low, high=high) if key in given
            else default for key, (default, low, high) in FAMILY_PARAMS.get(family, {}).items()}


# Each sample family draws one block: ``draw(rng, out, params)`` fills the
# block's row buffer ``out[0]``, then ``out[1]``, from ``rng`` and returns
# the block's columns by name.
DRAW_FAMILIES = {
    "standard-normal-pair": _standard_normal_pair,
    "bivariate-normal": _bivariate_normal,
    "gaussian-sum": _gaussian_sum,
    "uniform-square": _uniform_square,
}


def _pass(sampler: "Sampler", read: Callable):
    """``read(frame)`` for each block of the sampler's rows, ``frame`` the
    block's columns, yielded lazily and in block order from one streamed
    pass that keeps no rows.

    Block i (DRAW_BLOCK rows, the last one shorter) is drawn whole by its
    family's one draw from its own SFC64 generator of the seed and the
    spawn key ``spawn + (_BLOCK_KEY, i)``; so no block depends on another,
    each row takes one draw per column, and the pass splits its blocks over
    DRAW_THREADS worker threads.  ``read`` runs on the worker, into whose
    reused buffers the frame is drawn, and must copy what it keeps.  The
    answers still come in block order, so a fold of them is a one-thread
    pass's, bit for bit.

    SFC64 is numpy's fastest bit generator under the ziggurat normal draw
    that bounds a pass: 6.0 ns a normal on one core against PCG64's 7.3
    (ROADMAP, "Measured and rejected designs").
    """
    draw, n, params = DRAW_FAMILIES[sampler.family], int(sampler.budget), sampler.params
    block = DRAW_BLOCK
    # each worker's block buffer, two rows reused from block to block: fresh
    # buffers made the pass about a fifth slower
    worker = threading.local()

    def drawn(i: int):
        if not hasattr(worker, "bufs"):
            worker.bufs = np.empty((2, min(block, n)))
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(
            sampler.seed, spawn_key=sampler.spawn + (_BLOCK_KEY, i))))
        return read(draw(rng, worker.bufs[:, :min(block, n - i * block)], params))

    # imported here: it would add 2.5 ms to every `import condpoint`
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(DRAW_THREADS) as pool:
        yield from pool.map(drawn, range(-(-n // block)))


class _RowFrame(Mapping):
    """Read-only frame of sample columns restricted to the row indices ``rows``.

    A column is gathered, in row order, the first time it is read, and kept
    for the life of the frame only; membership, iteration and length gather
    nothing.
    """

    def __init__(self, columns: dict, rows: np.ndarray):
        self._columns = columns
        self._rows = rows
        self._taken: dict = {}

    def __getitem__(self, name):
        col = self._taken.get(name)
        if col is None:
            col = self._taken[name] = self._columns[name].take(self._rows)
        return col

    def __contains__(self, name) -> bool:
        return name in self._columns

    def __iter__(self):
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)


def _row_values(rv: RandomVariable, columns, rows: np.ndarray) -> np.ndarray:
    """``rv`` on the rows ``rows`` of ``columns``, one block's frame."""
    return _evaluate(f"variable {rv.name!r}", rv.fn, _RowFrame(columns, rows), rows.shape)


class _Block:
    """One frame of a streamed pass read as a space: ``values_of`` and
    ``indicator`` as on the full stream, memoised for the block only."""

    def __init__(self, frame: dict):
        self._frame, self._cache = frame, {}

    def frame(self) -> dict:
        return self._frame

    _apply = _frame_apply
    values_of = _values_of
    indicator = _indicator


def _stats(x: np.ndarray) -> tuple:
    """(count, mean, M2, the sum of squared deviations) of the values ``x``,
    summed as numpy's ``x.mean()`` and ``x.std()`` sum them; (0, 0.0, 0.0)
    for no values."""
    if x.size == 0:
        return 0, 0.0, 0.0
    mean = float(x.mean())
    d = x - mean
    return x.size, mean, float(np.square(d, out=d).sum())


def _merge(a: tuple, b: tuple) -> tuple:
    """The ``_stats`` of two sets of values from theirs, by the pairwise
    update of Chan, Golub & LeVeque; an empty set leaves the other as it is."""
    k_b, mean_b, m2_b = b
    if k_b == 0:
        return a
    k_a, mean_a, m2_a = a
    if k_a == 0:
        return b
    k = k_a + k_b
    delta = mean_b - mean_a
    return k, mean_a + delta * k_b / k, m2_a + m2_b + delta * delta * k_a * k_b / k


def _conditional(space, k: int, mean: float, m2: float) -> ConditionalEstimate:
    """E[X | A] on a sampler from X's count, mean and M2 on the rows of A
    (``_stats``); the degenerate branch when ``is_null`` holds for k / budget."""
    n = int(space.budget)
    p = k / n
    if is_null(space, p):
        return ConditionalEstimate(0.0, n=k, prob=p, degenerate=True)
    se = math.sqrt(m2 / (k - 1)) / math.sqrt(k) if k > 1 else math.inf
    return ConditionalEstimate(mean, se=se, n=k, prob=p)


def _fold(sampler: "Sampler", rv: RandomVariable | None, families) -> list:
    """``rv``'s (count, mean, M2) on the rows of each event of each list in
    ``families``, from one streamed pass that keeps no rows (``_pass``).  An
    event None is every row of ``rv``; with ``rv`` None only each event's
    count is taken.

    Each block of rows is read once.  In a list, an event inside the one
    before it (``_inside``) is found among that event's rows, so a list of
    nested windows evaluates its variable and ``rv`` once per block, on the
    rows of its first window; any other event tests its own membership on
    the block.  Each event's ``_stats`` of a block merge in block order
    (``_merge``), so counts equal the full stream's, and the mean and M2
    equal it up to summation order.  The blocks are read on the pass's
    worker threads, where no public method of a space runs.
    """
    def read(frame) -> list:
        block, out = _Block(frame), []
        for events in families:
            prev, stats = None, []  # prev: (event, its variable on its rows, rv on its rows)
            for event in events:
                if event is None:
                    v, x = None, block.values_of(rv)
                elif prev is not None and _inside(event, prev[0]):
                    keep = np.flatnonzero(_interval_mask(prev[1], event.pieces))
                    v, x = prev[1].take(keep), prev[2].take(keep)
                else:
                    rows = np.flatnonzero(block.indicator(event))
                    v = block.values_of(event.rv)[rows] if event.kind == "intervals" else None
                    x = _row_values(rv, frame, rows) if rv is not None and rows.size else rows
                stats.append(_stats(x) if rv is not None else (x.size, 0.0, 0.0))
                prev = None if event is None else (event, v, x)
            out.append(stats)
        return out

    acc = [[(0, 0.0, 0.0)] * len(events) for events in families]
    for got in _pass(sampler, read):
        acc = [list(map(_merge, accs, stats)) for accs, stats in zip(acc, got)]
    return acc


@dataclass(eq=False)
class Sampler:
    """Seeded Monte Carlo space over named sample columns.

    Rows come from ``DRAW_FAMILIES[family]``, block by block, each block
    from its own SFC64 generator keyed by the seed, the spawn key and the
    block's index (``_pass``); the same seed always yields the identical
    sample, and ``substream(i)`` derives an independent child stream.  The
    budget is a row count in [1, MAX_BUDGET].  To add a model, register its
    one ``draw(rng, out, params)`` there.  A family's parameters missing
    from ``params`` take their FAMILY_PARAMS defaults, and one outside its
    range is a ValueError; other keys pass through.
    Every query (``moment``, ``cond``, ``cond_each``, ``variance``,
    ``values_on``, ``pushforward``) is one streamed pass that keeps no rows,
    so memory does not grow with the budget.  ``columns`` and the
    ``values_of``, ``indicator`` and ``frame`` read from it keep the full
    stream: they are the reference that tests compare the passes against,
    and no query calls them.
    """

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    budget: int = 100_000
    spawn: tuple = ()
    _cache: dict = field(default_factory=dict, repr=False)
    null_floor = PROB_FLOOR  # off atoms no float mass witnesses exact nullity
    identity_tol = 1e-10  # the identity holds exactly for the empirical measure

    def __post_init__(self):
        # >= 1 first, so a low budget's error names only that; then the cap, as substream's
        whole_number(self.budget, "sampler budget", 1)
        whole_number(self.budget, "sampler budget", 1, end=MAX_BUDGET + 1)
        whole_number(self.seed, "sampler seed")
        self.spawn = tuple(whole_number(entry, "sampler spawn key entry", end=_BLOCK_KEY)
                           for entry in self.spawn)
        if self.family not in DRAW_FAMILIES:
            raise ValueError(f"unknown sampler family {self.family!r}; "
                             f"expected one of {sorted(DRAW_FAMILIES)}")
        self.params = self.params | family_params(self.family, self.params, "sampler params")

    def columns(self) -> dict:
        """The full stream, the reference for tests: every row by column
        name, read-only, copied block by block from one streamed pass
        (``_pass``) on the calling thread and kept; so the rows equal every
        pass's frames, bit for bit."""
        hit = self._cache.get("columns")
        if hit is None:
            n, cols, start = int(self.budget), {}, 0
            copies = _pass(self, lambda frame: {name: col.copy() for name, col in frame.items()})
            for frame in copies:
                for name, col in frame.items():
                    if name not in cols:
                        cols[name] = np.empty(n, col.dtype)
                    cols[name][start:start + col.size] = col
                start += col.size
            hit = self._cache["columns"] = (None, {k: _frozen(v) for k, v in cols.items()})
        return hit[1]

    def substream(self, index: int) -> "Sampler":
        """The independent child stream ``index``, an integer in [0,
        _BLOCK_KEY): one spawn-key word, so no path of indices spells
        another's key, nor a block's."""
        index = whole_number(index, "substream index", end=_BLOCK_KEY)
        return replace(self, spawn=self.spawn + (index,), _cache={})

    def cond_each(self, rv: RandomVariable, families) -> list:
        """E[rv | A] for each event A of each list in ``families``, from one
        streamed pass (``_fold``); each answer is also stored, while its
        event lives, for ``cond`` to return."""
        families = [list(events) for events in families]
        answers = [[_conditional(self, *a) for a in accs] for accs in _fold(self, rv, families)]
        for events, row in zip(families, answers):
            for event, answer in zip(events, row):
                _memo(self, ("cond", id(rv), id(event)), event, lambda: (rv, answer))
        return answers

    def frame(self) -> dict:
        return self.columns()

    _apply = _frame_apply
    values_of = _values_of
    indicator = _indicator

    def moment(self, rv: RandomVariable | None, event: Event | None) -> Estimate:
        """E[1_A X]; with rv None the event mass, with event None the full
        mean; from one streamed pass (``_fold``)."""
        n = int(self.budget)
        if rv is None and event is None:
            return Estimate(1.0, 0.0, n)
        (k, mean, m2), = _fold(self, rv, [[event]])[0]
        p = k / n
        if rv is None:
            return Estimate(p, math.sqrt(max(p * (1.0 - p), 0.0) / n), n)
        if event is None:
            return Estimate(mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else math.inf, n)
        m1 = k * mean / n
        # the variance of 1_A X over all n rows, centred at m1: the k rows on
        # A sum M2 plus their mean's offset, the n - k rows off A are 0
        d = mean - m1
        var = (m2 + k * d * d + (n - k) * m1 * m1) / n
        return Estimate(m1, math.sqrt(var / n), n)

    def cond(self, rv: RandomVariable, event: Event) -> ConditionalEstimate:
        """E[rv | A]: the answer ``cond_each`` stored for ``(rv, event)``,
        read before any row, else ``cond_each``'s own pass for it."""
        hit = self._cache.get(("cond", id(rv), id(event)))
        if hit is not None:
            return hit[2]
        return self.cond_each(rv, [[event]])[0][0]


ProbabilitySpace = DiscreteAtoms | DensityGrid | Sampler


# ---------------------------------------------------------------------------
# Operations


def probability(space: ProbabilitySpace, event: Event) -> Estimate:
    """P(A) by exact weight sum, clipped quadrature, or sample fraction;
    memoised on the space while ``event`` lives."""
    return _memo(space, ("prob", id(event)), event, lambda: (space.moment(None, event),))[0]


def expectation(space: ProbabilitySpace, rv: RandomVariable) -> Estimate:
    """E[X] by weighted sum, quadrature, or sample mean."""
    return space.moment(rv, None)


def indicator_moment(space: ProbabilitySpace, rv: RandomVariable, event: Event) -> Estimate:
    """E[1_A X], the one-sided building block of every conditioning formula."""
    return space.moment(rv, event)


def cond_expectation_event(space: ProbabilitySpace, rv: RandomVariable,
                           event: Event) -> ConditionalEstimate:
    """E[X | A] = E[1_A X] / P(A), and 0 on the degenerate branch where
    ``is_null(space, P(A))`` holds."""
    return space.cond(rv, event)


def values_on(space: ProbabilitySpace, rv: RandomVariable, event: Event) -> np.ndarray:
    """The values of ``rv`` at the points of ``event``, in frame order, as a
    1D array; on a sampler each block's from one streamed pass (``_pass``),
    joined in block order, which is row order."""
    if isinstance(space, Sampler):
        blocks = _pass(space, lambda frame: values_on(_Block(frame), rv, event))
        return np.concatenate(list(blocks))
    return space.values_of(rv)[space.indicator(event)]


def variance(space: ProbabilitySpace, rv: RandomVariable) -> float:
    """Variance of ``rv``, centred as E[(X - E[X])^2], memoised on the
    space per variable.  On a sampler it is M2 / count from one streamed
    pass (``_fold``) that keeps no rows."""
    def build():
        if isinstance(space, Sampler):
            (k, _, m2), = _fold(space, rv, [[None]])[0]
            return (m2 / k,)
        m = expectation(space, rv).value
        # squared in place: one array the size of rv's values, as rv * rv made
        sq = _combination(f"({rv.name}-E)^2", lambda x: np.square(d := x - m, out=d), rv)
        return (expectation(space, sq).value,)

    key, owner = _cache_key(rv)
    return _memo(space, ("var", key), owner, build)[0]


def std(space: ProbabilitySpace, rv: RandomVariable) -> float:
    """Standard deviation of ``rv``, from the memoised ``variance``."""
    return math.sqrt(variance(space, rv))


def pushforward(space: ProbabilitySpace, rv: RandomVariable,
                bins: tuple | None = None) -> ProbabilitySpace:
    """The law of ``rv`` as a new space.

    Discrete spaces group atoms by exact value.  Grid coordinates marginalize
    onto their axis.  Anything else is binned into ``bins = (lo, hi, count)``
    with the lost tail mass recorded in ``meta['mass_defect']``; a sampler
    adds up each block's counts from one streamed pass (``_pass``) and
    divides by its budget once.
    """
    if isinstance(space, DiscreteAtoms):
        vals = space.values_of(rv)
        levels = np.unique(vals)
        weights = np.array([_fsum(space.weights[vals == lv]) for lv in levels])
        return DiscreteAtoms(tuple(float(lv) for lv in levels), weights)
    if isinstance(space, DensityGrid) and rv.coord in space.axes:
        if len(space.axes) == 1:
            return space
        k = space.axes.index(rv.coord)
        lo, hi = space.ranges[k]
        return DensityGrid1D(rv.coord, lo, hi, _grid_marginal(space, None, k)[0][:, 0],
                             quad_tol=space.quad_tol)
    if bins is None:
        raise ValueError("pushforward of a non-coordinate variable needs bins=(lo, hi, count)")
    lo, hi, count = float(bins[0]), float(bins[1]), int(bins[2])
    if isinstance(space, Sampler):
        def counts(frame):
            return np.histogram(_Block(frame).values_of(rv), bins=count, range=(lo, hi))[0]

        hist = sum(_pass(space, counts)) / float(space.budget)
        edges = np.histogram_bin_edges((), bins=count, range=(lo, hi))
    else:
        hist, edges = np.histogram(space.values_of(rv).ravel(), bins=count, range=(lo, hi),
                                   weights=(_node_weights(space) * space.values).ravel())
    total = float(hist.sum())
    if is_null(space, total):
        raise EmptyRange(f"no mass of {rv.name} falls inside [{lo}, {hi}]")
    centers = 0.5 * (edges[:-1] + edges[1:])
    out = DiscreteAtoms(tuple(float(c) for c in centers), hist / total)
    out.meta["mass_defect"] = 1.0 - total
    return out
