"""Probability spaces, random variables, and events at desk scale.

Three space variants share one estimator API:

* ``DiscreteAtoms``   -- finite weighted atoms, exact arithmetic via fsum;
* ``DensityGrid``     -- density values on a uniform node grid over n axes,
  trapezoid quadrature, window events integrated exactly against the
  piecewise-linear interpolant along their axis; ``DensityGrid1D`` and
  ``DensityGrid2D`` are its constructors for one axis and for a rectangle;
* ``Sampler``         -- a seeded Monte Carlo column store; every estimate
  carries a standard error and an effective sample count.

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
import mmap
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
    """Whether the mass ``p`` is null on ``space``: zero, or below ``PROB_FLOOR``
    off discrete spaces.  Every nullity decision in the package is this one."""
    return p <= 0.0 or (p < PROB_FLOOR and not isinstance(space, DiscreteAtoms))


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


def _frame_shape(frame) -> tuple:
    return next(iter(frame.values())).shape


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
    return _evaluate(what, fn, frame, _frame_shape(frame), dtype)


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
    """(x*f integrated over every axis but ``k``, its antiderivative); cached.

    Both are 1D over the nodes of axis ``k``.  The marginal is one ``einsum``
    of f with the trapezoid weights of every other axis.  A variable along
    one axis ``j`` (``_axis_of``) folds its node values into axis ``j``'s
    weights, or scales the result when ``j`` is ``k``, so it builds no array
    the size of the grid; any other variable contracts its x*f product.  A
    window along ``k`` clips only this marginal, the mass integrates the
    marginal of the last axis and any other full mean that of axis 0, and
    the ratio route of ``density`` interpolates the marginals of its
    conditioning axis.
    """
    def build():
        weights = [_axis_weights(space, i) for i in range(len(space.axes))]
        f, scale = space.values, None
        j = _axis_of(space, rv)
        if j is None:
            f = _grid_product(space, rv)
        elif j == k:
            scale = _axis_values(space, rv, j)
        else:
            weights[j] *= _axis_values(space, rv, j)
        operands = [f, range(f.ndim)]
        for i, w in enumerate(weights):
            if i != k:
                operands += [w, [i]]
        marg = np.einsum(*operands, [k])  # a view of f on a 1D grid: never scaled in place
        if scale is not None:
            marg = scale * marg
        return _frozen(marg), _frozen(quad.cumulative(marg, space.pitches[k]))

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
    """E[1_A X] on a grid for each window A = (lo, hi) along axis ``k`` at
    once, the event mass with rv None: one clipped-integral call on the
    cached 1D marginal.  ``lo`` and ``hi`` are arrays of window ends.  Each
    value is the sum of one piece started at 0, as an event's moment is, so
    a -0.0 integral reads 0.0.
    """
    marg, cum = _grid_marginal(space, rv, k)
    return quad.clip_integral(space.grid[k], marg, lo, hi, cum) + 0.0


def _window_pairs(space, rv: RandomVariable, k: int, lo, hi) -> np.ndarray:
    """``window_moments`` of the mass and of ``rv``, as the two columns of
    one array from one clipped-integral call on their cached marginals along
    ``k``, side by side in an (nodes, 2) pair cached per variable and axis.
    The mass marginal is built first, so it is cached even when ``rv`` fails.
    """
    def build():
        mass, marg = _grid_marginal(space, None, k), _grid_marginal(space, rv, k)
        return tuple(_frozen(np.stack(cols, axis=-1)) for cols in zip(mass, marg))

    key, owner = _cache_key(rv)
    pair, cum = _memo(space, ("pair", key, k), owner, build)
    return quad.clip_integral(space.grid[k], pair, lo, hi, cum) + 0.0


def _grid_moment(self, rv: RandomVariable | None, event: Event | None) -> Estimate:
    """E[1_A X]; with rv None the event mass, with event None the full mean.

    The full mean and interval events on an axis integrate x*f by the
    trapezoid rule over the other axes first (the cached 1D marginal), then
    along the remaining axis: whole for the full mean, exactly against the
    piecewise-linear interpolant for a window.  A variable that varies along
    one axis only has its full mean from that axis's nodes and the cached
    mass marginal.  Other events fall back to node-indicator quadrature of x*f.
    """
    if event is None:
        k = _axis_of(self, rv)
        if k is None:  # the mass off the last axis, the conditioning one; x*f off axis 0
            k = len(self.axes) - 1 if rv is None else 0
            return Estimate(float(quad.integrate(_grid_marginal(self, rv, k)[0],
                                                 self.pitches[k])))
        return Estimate(float(quad.integrate(
            _axis_values(self, rv, k) * _grid_marginal(self, None, k)[0], self.pitches[k])))
    if event.kind == "complement":
        return Estimate(self.moment(rv, None).value - self.moment(rv, event.base).value)
    if event.kind == "intervals" and event.rv.coord in self.axes:
        lo, hi = np.array(event.pieces, dtype=float).reshape(-1, 2).T
        pieces = window_moments(self, rv, self.axes.index(event.rv.coord), lo, hi)
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


# Rows per block of a draw stream.  Small blocks keep the per-block
# temporaries, which stay in malloc's per-thread pools, small: with 2^20-row
# blocks the shipped scenarios peaked at 121-132 MiB against 89-91 MiB.
DRAW_BLOCK = 1 << 16

# Worker threads of a streamed pass: the blocks of one sampler's pass from its
# recorded states, or the substreams of a paradox, one pass each.  numpy
# releases the GIL while it draws, and each pass in flight holds a few blocks
# of rows, not a column, so this bounds the CPU a pass takes, not its memory.
DRAW_THREADS = 2


@dataclass(frozen=True)
class DrawFamily:
    """A built-in sample family: a head column, then a last column.

    ``head(rng, out, params)`` draws the head column into ``out``, of any
    length, and returns it by name.  ``last(rng, rows, out, params)`` draws
    one block of the last column into ``out`` and returns it with any column
    derived from it; ``rows`` holds the head columns of that block.
    """

    head: Callable
    last: Callable


# Anonymous maps private to this process (Windows maps take no flags and are).
_MAP_FLAGS = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _mapped(n: int, dtype=float) -> np.ndarray:
    """An ``n``-row column in its own anonymous memory map.

    The map goes back to the system when the column's last view dies, on
    whichever thread made it, and a page takes memory only once written.
    """
    dtype = np.dtype(dtype)
    region = mmap.mmap(-1, max(n, 1) * dtype.itemsize, **_MAP_FLAGS)
    return np.frombuffer(region, dtype=dtype, count=n)


def _normal_z(rng, out, params):
    return {"z": rng.standard_normal(out=out)}


def _bivariate_last(rng, rows, out, params):
    # s * noise + rho * z in place: IEEE sums commute, so this is rho * z + s * noise
    rho = float(params["rho"])
    y = rng.standard_normal(out=out)
    y *= math.sqrt(1.0 - rho * rho)
    y += rho * rows["z"]
    return {"y": y}


def _gaussian_sum_head(rng, out, params):
    x = rng.standard_normal(out=out)
    x *= math.sqrt(float(params["var_x"]))
    return {"x": x}


def _gaussian_sum_last(rng, rows, out, params):
    eps = rng.standard_normal(out=out)
    eps *= math.sqrt(float(params["var_noise"]))
    return {"eps": eps, "y": rows["x"] + eps}


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


def family_params(family: str, given: dict, what: str) -> dict:
    """``family``'s parameters in FAMILY_PARAMS: each one in ``given`` a
    finite number in its range (``finite_number``, named "``what`` key"),
    each one missing its default."""
    return {key: finite_number(given[key], f"{what} {key}", low, high=high) if key in given
            else default for key, (default, low, high) in FAMILY_PARAMS.get(family, {}).items()}


DRAW_FAMILIES = {
    "standard-normal-pair": DrawFamily(
        _normal_z, lambda rng, rows, out, params: {"y": rng.standard_normal(out=out)}),
    "bivariate-normal": DrawFamily(_normal_z, _bivariate_last),
    "gaussian-sum": DrawFamily(_gaussian_sum_head, _gaussian_sum_last),
    "uniform-square": DrawFamily(lambda rng, out, params: {"z": rng.random(out=out)},
                                 lambda rng, rows, out, params: {"y": rng.random(out=out)}),
}


def _stream(sampler: "Sampler") -> tuple:
    """(whole columns, frames): the sampler's rows from one pass of a fresh
    generator of its seed (``_generator``), as a lazy sequence of frames of
    ``DRAW_BLOCK`` rows each, in order.

    A custom ``draw(rng, n, params)`` draws its columns whole; its frames
    slice them.  A DrawFamily draws its head column whole into a mapped
    column, and its last column block by block into one reused, cache-warm
    buffer.  Blocks come in order from one generator, so the rows equal one
    whole-array draw bit for bit.  A frame is read-only to its reader and
    valid until the next one is drawn.
    """
    family = DRAW_FAMILIES[sampler.family] if sampler.draw is None else sampler.draw
    rng, n, params = _generator(sampler), int(sampler.budget), sampler.params
    spans = [(a, min(a + DRAW_BLOCK, n)) for a in range(0, max(n, 1), DRAW_BLOCK)]
    if not isinstance(family, DrawFamily):
        cols = family(rng, n, params)
        return cols, ({name: col[a:b] for name, col in cols.items()} for a, b in spans)
    buf = np.empty(min(DRAW_BLOCK, n))
    cols = family.head(rng, _mapped(n), params)
    heads = ({name: col[a:b] for name, col in cols.items()} for a, b in spans)
    return cols, (head | family.last(rng, head, buf[:b - a], params)
                  for head, (a, b) in zip(heads, spans))


def _generator(sampler: "Sampler") -> np.random.Generator:
    """A fresh PCG64 generator of the sampler's seed and spawn key."""
    return np.random.default_rng(np.random.SeedSequence(sampler.seed, spawn_key=sampler.spawn))


def _columns(n: int, cols: dict, frames) -> dict:
    """All ``n`` rows by column name from ``_stream``'s answer: its whole
    columns themselves, and a mapped copy of each column its frames add."""
    out, start = dict(cols), 0
    for frame in frames:
        stop = start + _frame_shape(frame)[0]
        for name, col in frame.items():
            if name not in cols:
                if name not in out:
                    out[name] = _mapped(n, col.dtype)
                out[name][start:stop] = col
        start = stop
    return out


def _state(rng) -> tuple:
    """The PCG64 state of ``rng`` as a tuple of its four fields (a 128-bit
    state and increment, and the buffered 32-bit draw), for ``_at``."""
    s = rng.bit_generator.state
    return s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"]


def _at(rng, state: tuple):
    """``rng`` set to ``state``, one of ``_state``."""
    s, inc, has_uint32, uinteger = state
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": s, "inc": inc},
                               "has_uint32": has_uint32, "uinteger": uinteger}
    return rng


def _pass(sampler: "Sampler", read: Callable):
    """``read(frame)`` for each frame of the sampler's rows, lazily and in
    row order, from one streamed pass that keeps no rows.

    A built-in family's block is drawn (``drawn``) from two generator states
    (``_state``), one before its head block and one before its last block.
    The first pass records them, a few hundred bytes a block: it advances a
    fresh generator past the head draws, then draws each block on the
    calling thread, the last from where the generator stands.  A later pass
    draws its blocks on DRAW_THREADS worker threads; the answers still come
    in block order, so a fold of them is the sequential pass's, bit for bit.
    A two-column family's first pass draws 3 values a row (head advance,
    head redraw, last), a later pass 2.  A custom draw records no states:
    each pass draws it whole.
    """
    if sampler.draw is not None:
        yield from map(read, _stream(sampler)[1])
        return
    family, n, params = DRAW_FAMILIES[sampler.family], int(sampler.budget), sampler.params
    hit = sampler._cache.get("states")
    block, heads, lasts = (DRAW_BLOCK, [], []) if hit is None else hit[1:]

    def drawn(i: int, rng, bufs):
        rows = min(block, n - i * block)
        head = family.head(_at(rng, heads[i]), bufs[0, :rows], params)
        return read(head | family.last(_at(rng, lasts[i]), head, bufs[1, :rows], params))

    if hit is None:
        rng, bufs = _generator(sampler), np.empty((2, min(block, n)))
        for a in range(0, n, block):
            heads.append(_state(rng))
            family.head(rng, bufs[0, :min(block, n - a)], params)
        for i in range(len(heads)):
            lasts.append(_state(rng))
            yield drawn(i, rng, bufs)
        _memo(sampler, "states", None, lambda: (block, tuple(heads), tuple(lasts)))
        return

    # each worker's generator and two block buffers, reused from block to
    # block: fresh buffers made the pass about a fifth slower
    worker = threading.local()

    def split(i: int):
        if not hasattr(worker, "rng"):
            worker.rng = np.random.Generator(np.random.PCG64(0))
            worker.bufs = np.empty((2, min(block, n)))
        return drawn(i, worker.rng, worker.bufs)

    # imported here: it would add 2.5 ms to every `import condpoint`
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(DRAW_THREADS) as pool:
        yield from pool.map(split, range(len(heads)))


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
    """``rv`` on the rows ``rows`` of ``columns``: a full stream or one frame."""
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


@dataclass(eq=False)
class Sampler:
    """Seeded Monte Carlo space over named sample columns.

    Rows are drawn once, lazily, from ``DRAW_FAMILIES[family]`` (or a custom
    ``draw`` callable) with a PCG64 generator; the same seed always yields
    the identical sample, and ``substream(i)`` derives an independent child
    stream for parallel use.  A built-in family's parameters missing from
    ``params`` take their FAMILY_PARAMS defaults, and one outside its range
    is a ValueError; other keys pass through.  ``cond_each`` answers lists
    of events, and ``variance`` a variable's spread, from one streamed pass
    that keeps no rows (``_pass``); every other query reads the full stream
    (``columns``).
    """

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    budget: int = 100_000
    spawn: tuple = ()
    draw: Callable | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not isinstance(self.budget, numbers.Integral) or self.budget < 1:
            raise ValueError(f"sampler budget must be an integer >= 1, got {self.budget!r}")
        if self.draw is None:
            if self.family not in DRAW_FAMILIES:
                raise ValueError(f"unknown sampler family {self.family!r}; "
                                 f"expected one of {sorted(DRAW_FAMILIES)}")
            self.params = self.params | family_params(self.family, self.params, "sampler params")

    def columns(self) -> dict:
        """The drawn rows by column name."""
        return _memo(self, "columns", None,
                     lambda: (_columns(int(self.budget), *_stream(self)),))[0]

    def substream(self, index: int) -> "Sampler":
        return replace(self, spawn=self.spawn + (int(index),), _cache={})

    def cond_each(self, rv: RandomVariable, families) -> list:
        """E[rv | A] for each event A of each list in ``families``, from one
        streamed pass of this stream's generator that keeps no rows
        (``_pass``); each answer is also stored, while its event lives, for
        ``cond`` to return.

        Each block of rows is read once.  In a list, an event inside the one
        before it (``_inside``) is found among that event's rows, so a list
        of nested windows evaluates its variable and ``rv`` once per block,
        on the rows of its first window; any other event tests its own
        membership on the block.  Each event's (count, mean, squared
        deviations) of a block (``_stats``) merge in block order
        (``_merge``), so counts and probabilities equal ``cond`` on the full
        stream, and the mean and se equal it up to summation order, whether
        the blocks were drawn on this thread or split over workers.  No
        public method of a space runs, so the pass may run on any thread.
        """
        families = [list(events) for events in families]

        def read(frame) -> list:
            block, out = _Block(frame), []
            for events in families:
                prev, stats = None, []  # prev: (event, its variable on its rows, rv on its rows)
                for event in events:
                    if prev is not None and _inside(event, prev[0]):
                        keep = np.flatnonzero(_interval_mask(prev[1], event.pieces))
                        v, x = prev[1].take(keep), prev[2].take(keep)
                    else:
                        rows = np.flatnonzero(block.indicator(event))
                        v = block.values_of(event.rv)[rows] if event.kind == "intervals" else None
                        x = _row_values(rv, frame, rows) if rows.size else rows
                    stats.append(_stats(x))
                    prev = event, v, x
                out.append(stats)
            return out

        acc = [[(0, 0.0, 0.0)] * len(events) for events in families]
        for got in _pass(self, read):
            acc = [list(map(_merge, accs, stats)) for accs, stats in zip(acc, got)]
        answers = [[_conditional(self, *a) for a in accs] for accs in acc]
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
        n = int(self.budget)
        if event is None:
            if rv is None:
                return Estimate(1.0, 0.0, n)
            x = self.values_of(rv)
            return Estimate(float(x.mean()), float(x.std(ddof=1) / math.sqrt(n)), n)
        rows = np.flatnonzero(self.indicator(event))
        k = rows.size
        if rv is None:
            p = k / n
            return Estimate(p, math.sqrt(max(p * (1.0 - p), 0.0) / n), n)
        if k == 0:
            return Estimate(0.0, 0.0, n)
        xs = _row_values(rv, self.columns(), rows)
        m1 = float(xs.sum()) / n
        # the variance of 1_A X over all n rows, centred: the n - k rows off A are 0
        d = xs - m1
        var = (float((d * d).sum()) + (n - k) * m1 * m1) / n
        return Estimate(m1, math.sqrt(var / n), n)

    def cond(self, rv: RandomVariable, event: Event) -> ConditionalEstimate:
        """E[rv | A]: the answer ``cond_each`` stored for ``(rv, event)``,
        read before any row, else from the rows of the full stream."""
        hit = self._cache.get(("cond", id(rv), id(event)))
        if hit is not None:
            return hit[2]
        rows = np.flatnonzero(self.indicator(event))
        x = _row_values(rv, self.columns(), rows) if rows.size else rows
        return _conditional(self, *_stats(x))


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
    """The values of ``rv`` at the points of ``event``, in frame order, as a 1D array."""
    return space.values_of(rv)[space.indicator(event)]


def variance(space: ProbabilitySpace, rv: RandomVariable) -> float:
    """Variance of ``rv``, centred as E[(X - E[X])^2], memoised on the
    space per variable.  On a sampler it is M2 / count from one streamed
    pass (``_pass``) that keeps no rows, each block's ``_stats`` merged in
    block order."""
    def build():
        if isinstance(space, Sampler):
            k, _, m2 = functools.reduce(
                _merge, _pass(space, lambda frame: _stats(_Block(frame).values_of(rv))))
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
    with the lost tail mass recorded in ``meta['mass_defect']``.
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
        return DensityGrid1D(rv.coord, lo, hi, _grid_marginal(space, None, k)[0],
                             quad_tol=space.quad_tol)
    if bins is None:
        raise ValueError("pushforward of a non-coordinate variable needs bins=(lo, hi, count)")
    lo, hi, count = float(bins[0]), float(bins[1]), int(bins[2])
    vals = space.values_of(rv).ravel()
    if isinstance(space, Sampler):
        mass = np.full(vals.shape, 1.0 / float(space.budget))
    else:
        mass = (_node_weights(space) * space.values).ravel()
    hist, edges = np.histogram(vals, bins=count, range=(lo, hi), weights=mass)
    total = float(hist.sum())
    if is_null(space, total):
        raise EmptyRange(f"no mass of {rv.name} falls inside [{lo}, {hi}]")
    centers = 0.5 * (edges[:-1] + edges[1:])
    out = DiscreteAtoms(tuple(float(c) for c in centers), hist / total)
    out.meta["mass_defect"] = 1.0 - total
    return out
