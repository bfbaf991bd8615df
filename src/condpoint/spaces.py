"""Probability spaces, random variables, and events at desk scale.

Four space variants share one estimator API:

* ``DiscreteAtoms``   -- finite weighted atoms, exact arithmetic via fsum;
* ``DensityGrid1D``   -- density values on a uniform node grid, trapezoid
  quadrature, window events integrated exactly against the piecewise-linear
  interpolant;
* ``DensityGrid2D``   -- same on a rectangle, axis-aligned windows clipped
  exactly along either axis (both grid variants run one implementation over
  per-axis tuples);
* ``Sampler``         -- a seeded Monte Carlo column store; every estimate
  carries a standard error and an effective sample count.

Random variables evaluate on a space's "frame": the atom itself on discrete
spaces, a dict of named coordinate arrays on grids and samplers, which share
one ``values_of`` and one ``indicator`` over it.  Per-variable results are
memoised on the space and leave with their variable.  Events are atom sets,
predicates, unions of open intervals of a random variable, or complements of
those.
"""

from __future__ import annotations

import functools
import math
import mmap
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import quadrature as quad
from .errors import EmptyRange, NonIntegrable, OutsideHull, UndefinedPredicate

# Below this mass, grid and sampler events are treated as null: floating
# point cannot witness exact nullity off the discrete variant.
PROB_FLOOR = 1e-12


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
class ConditionalEstimate:
    """Result of conditioning on an event.

    ``degenerate`` marks the defined-by-convention branch where the event has
    (floored) zero probability and the value is 0.
    """

    value: float
    se: float = 0.0
    n: int | None = None
    prob: float = 0.0
    degenerate: bool = False

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# Random variables


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A named evaluation rule mapping points of a space to reals.

    ``fn`` receives the space's frame: the atom on discrete spaces, a dict of
    named coordinate arrays on grids and samplers.  ``coord`` marks pure
    coordinate extractors; interval events on such variables use the exact
    clipped-quadrature path on grids.
    """

    name: str
    fn: Callable
    coord: str | None = None

    def __call__(self, arg):
        return self.fn(arg)

    def _lift(self, other, op, sym):
        if isinstance(other, RandomVariable):
            f, g = self.fn, other.fn
            return RandomVariable(f"({self.name}{sym}{other.name})", lambda a: op(f(a), g(a)))
        f, c = self.fn, other
        return RandomVariable(f"({self.name}{sym}{other!r})", lambda a: op(f(a), c))

    def __add__(self, other):
        return self._lift(other, lambda x, y: x + y, "+")

    __radd__ = __add__

    def __sub__(self, other):
        return self._lift(other, lambda x, y: x - y, "-")

    def __mul__(self, other):
        return self._lift(other, lambda x, y: x * y, "*")

    __rmul__ = __mul__

    def __neg__(self):
        f = self.fn
        return RandomVariable(f"(-{self.name})", lambda a: -f(a))


def coordinate(name: str) -> RandomVariable:
    """The coordinate extractor for a named axis or sample column."""
    return RandomVariable(name, lambda frame: frame[name], coord=name)


def from_table(name: str, table: dict) -> RandomVariable:
    """Atom-indexed lookup table, for discrete spaces."""
    return RandomVariable(name, lambda atom: table[atom])


def constant(value: float, name: str | None = None) -> RandomVariable:
    return RandomVariable(name or repr(value), lambda arg: value)


# ---------------------------------------------------------------------------
# Events


@dataclass(frozen=True, eq=False)
class Event:
    """A measurable set: atom subset, predicate, interval union, or complement.

    The first computed probability per space is cached on the event.
    """

    name: str
    kind: str  # "atoms" | "pred" | "intervals" | "complement"
    atoms: frozenset | None = None
    pred: Callable | None = None
    rv: RandomVariable | None = None
    pieces: tuple = ()
    base: "Event | None" = None
    _prob: dict = field(default_factory=dict, repr=False, compare=False)

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
            v = self.rv.fn(arg)
            out = False
            for lo, hi in self.pieces:
                out = np.logical_or(out, np.logical_and(lo < v, v < hi))
            return out
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
    """Union of homogeneous events (all atom sets, or intervals on one rv)."""
    events = list(events)
    if not events:
        raise ValueError("empty union has no carrier; handle it at the call site")
    label = name or "|".join(e.name for e in events)
    if all(e.kind == "atoms" for e in events):
        merged: frozenset = frozenset()
        for e in events:
            merged = merged | e.atoms
        return Event(label, "atoms", atoms=merged)
    if all(e.kind == "intervals" for e in events):
        rv = events[0].rv
        if not all(_same_variable(e.rv, rv) for e in events):
            raise ValueError("interval union requires a shared variable")
        pieces = sorted(p for e in events for p in e.pieces)
        merged_pieces: list[tuple[float, float]] = []
        for lo, hi in pieces:
            if merged_pieces and lo <= merged_pieces[-1][1]:
                merged_pieces[-1] = (merged_pieces[-1][0], max(hi, merged_pieces[-1][1]))
            else:
                merged_pieces.append((lo, hi))
        return Event(label, "intervals", rv=rv, pieces=tuple(merged_pieces))
    raise ValueError("cannot union mixed event kinds exactly")


def interval_hull(events) -> Event | None:
    """The smallest interval event covering every event in ``events``.

    None unless every event is an interval event of one variable and at
    least one of them has a piece.
    """
    events = list(events)
    pieces = [p for e in events for p in e.pieces]
    if not pieces or any(e.kind != "intervals" or not _same_variable(e.rv, events[0].rv)
                         for e in events):
        return None
    return Event.interval(events[0].rv, min(lo for lo, _ in pieces),
                          max(hi for _, hi in pieces))


def _inside(event: Event, hull: Event) -> bool:
    """Whether ``event`` is an interval event of the hull's variable within ``hull``."""
    return (event.kind == "intervals" and _same_variable(event.rv, hull.rv)
            and all(any(a <= lo and hi <= b for a, b in hull.pieces)
                    for lo, hi in event.pieces))


def complement_within(space, event: Event, name: str | None = None) -> Event:
    """Complement of an event, staying on an exact event kind when possible.

    Atom-set events on discrete spaces complement against the atom list;
    single-variable interval events complement to the outer interval pieces.
    Anything else falls back to a structural complement node.
    """
    label = name or f"not({event.name})"
    if event.kind == "atoms" and isinstance(space, DiscreteAtoms):
        return Event(label, "atoms", atoms=frozenset(space.atoms) - event.atoms)
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
# Shared methods are bound by name in each class body, not inherited, so that
# every class owns its estimator attributes and each can be patched alone.


def _evict(space_ref, key, _dead) -> None:
    space = space_ref()
    if space is not None:
        space._cache.pop(key, None)


def _memo(space, key, rv: RandomVariable | None, build: Callable) -> tuple:
    """The result tuple of ``build()``, cached on ``space`` as ``(slot, *result)``.

    ``slot`` holds ``rv`` weakly; its callback drops the entry when ``rv``
    dies, so an id is never reused while its entry lives.  The callback holds
    the space weakly too, so no cycle keeps a dead space's arrays alive.
    """
    hit = space._cache.get(key)
    if hit is None:
        slot = None if rv is None else weakref.ref(
            rv, functools.partial(_evict, weakref.ref(space), key))
        hit = space._cache[key] = (slot, *build())
    return hit[1:]


def _frame_shape(frame) -> tuple:
    return next(iter(frame.values())).shape


def _evaluate(fn: Callable, frame, shape: tuple, dtype=float) -> np.ndarray:
    """``fn(frame)`` as an array broadcast to ``shape``; x/0 and 0/0 stay silent."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.broadcast_to(np.asarray(fn(frame), dtype=dtype), shape)


def _frame_values_of(self, rv: RandomVariable) -> np.ndarray:
    """``rv`` at every frame point, read-only; a coordinate stays a broadcast view."""
    def build():
        frame = self.frame()
        return (_evaluate(rv.fn, frame, _frame_shape(frame)),)

    return _memo(self, ("rv", id(rv)), rv, build)[0]


def _interval_mask(v: np.ndarray, pieces) -> np.ndarray:
    """Points of ``v`` inside any open piece, built in place piece by piece."""
    out = piece = below = None
    for lo, hi in pieces:
        piece = np.less(lo, v, out=piece)
        below = np.less(v, hi, out=below)
        piece &= below
        if out is None:
            out, piece = piece, None
        else:
            out |= piece
    return np.zeros(v.shape, dtype=bool) if out is None else out


def _frame_indicator(self, event: Event) -> np.ndarray:
    """Membership of every frame point; intervals test the memoised values of
    their variable.  Any failure of either kind is an UndefinedPredicate."""
    if event.kind == "complement":
        return ~self.indicator(event.base)
    if event.kind == "atoms":
        raise UndefinedPredicate(f"atom-set events are undefined on {type(self).__name__}")
    try:
        if event.kind == "intervals":
            return _interval_mask(self.values_of(event.rv), event.pieces)
        frame = self.frame()
        ind = _evaluate(event.pred, frame, _frame_shape(frame), dtype=None)
    except Exception as exc:
        raise UndefinedPredicate(f"event {event.name!r} failed on the frame: {exc}") from exc
    if ind.dtype != bool:
        raise UndefinedPredicate(f"event {event.name!r} is not boolean on the frame")
    return ind


def _ratio_cond(self, rv: RandomVariable, event: Event, floor: float) -> ConditionalEstimate:
    """E[1_A X] / P(A); the degenerate branch when P(A) is zero or below ``floor``."""
    p = self.moment(None, event).value
    if p == 0.0 or p < floor:
        return ConditionalEstimate(0.0, prob=p, degenerate=True)
    num = self.moment(rv, event).value
    return ConditionalEstimate(num / p, prob=p)


@dataclass(eq=False)
class DiscreteAtoms:
    """Finite weighted atom space. Weights sum to 1 within 1e-12, >= 0.

    Zero-weight atoms are allowed; they model exactly-null events while
    keeping their points representable.
    """

    atoms: tuple
    weights: np.ndarray
    name: str = "discrete"
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.atoms = tuple(self.atoms)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.atoms),):
            raise ValueError("one weight per atom required")
        if np.any(self.weights < 0):
            raise ValueError("negative atom weight")
        total = _fsum(self.weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {total!r}, not 1")

    @classmethod
    def uniform(cls, atoms, name="discrete"):
        n = len(atoms)
        return cls(tuple(atoms), np.full(n, 1.0 / n), name=name)

    def values_of(self, rv: RandomVariable) -> np.ndarray:
        return _memo(self, ("rv", id(rv)), rv, lambda: (
            _frozen(np.asarray([float(rv.fn(a)) for a in self.atoms])),))[0]

    def indicator(self, event: Event) -> np.ndarray:
        if event.kind == "complement":
            return ~self.indicator(event.base)
        try:
            flags = [bool(event._eval(a)) for a in self.atoms]
        except Exception as exc:  # membership must be decidable at every atom
            raise UndefinedPredicate(
                f"event {event.name!r} undefined on some atom: {exc}") from exc
        return np.asarray(flags, dtype=bool)

    def members(self, event: Event) -> list:
        ind = self.indicator(event)
        return [a for a, m in zip(self.atoms, ind) if m]

    def moment(self, rv: RandomVariable | None, event: Event | None) -> Estimate:
        """E[1_A X]; with rv None the event mass, with event None the full mean."""
        w = self.weights
        if event is not None:
            w = np.where(self.indicator(event), w, 0.0)
        if rv is None:
            return Estimate(_fsum(w[w != 0.0]))
        x = self.values_of(rv)
        live = w != 0.0
        if not np.all(np.isfinite(x[live])):
            raise NonIntegrable(f"{rv.name} is not finite on atoms with mass")
        return Estimate(_fsum(w[live] * x[live]))

    cond = _ratio_cond


def _trapezoid(values, pitches):
    """Trapezoid rule over the trailing axes of ``values``, one pitch per axis."""
    for pitch in reversed(pitches):
        values = quad.integrate(values, pitch)
    return values


def _node_weights(space) -> np.ndarray:
    """Trapezoid weight of every grid node: the outer product of the per-axis
    weights, which are one pitch inside and half a pitch at both ends."""
    weights = []
    for nodes, pitch in zip(space.grid, space.pitches):
        w = np.full(nodes.shape[0], pitch)
        w[0] *= 0.5
        w[-1] *= 0.5
        weights.append(w)
    return functools.reduce(np.multiply.outer, weights)


def _grid_setup(space) -> None:
    """Per-axis tuples from ``axes`` and ``ranges``, and the density checks.

    Both grid variants run on ``axes`` (coordinate names), ``ranges``
    ((lo, hi) per axis), ``grid`` (uniform nodes per axis) and ``pitches``;
    ``values[i, j, ...]`` is the density at ``(grid[0][i], grid[1][j], ...)``.
    The density must be non-negative, not NaN, and integrate to a finite
    mass within ``quad_tol`` of 1 under the trapezoid rule; the defect is
    recorded in ``meta``.
    """
    space.values = np.asarray(space.values, dtype=float)
    if space.values.ndim != len(space.ranges):
        raise ValueError("density values need exactly one axis per range")
    if any(n < 2 or hi <= lo for (lo, hi), n in zip(space.ranges, space.values.shape)):
        raise ValueError("grid needs at least 2 nodes and hi > lo")
    space.grid = tuple(np.linspace(lo, hi, n)
                       for (lo, hi), n in zip(space.ranges, space.values.shape))
    space.pitches = tuple(float(nodes[1] - nodes[0]) for nodes in space.grid)
    if not np.all(space.values >= 0):  # NaN fails this test too
        raise ValueError("density values must be non-negative numbers")
    defect = float(_trapezoid(space.values, space.pitches)) - 1.0
    if not math.isfinite(defect) or abs(defect) > space.quad_tol:  # an infinite node too
        raise ValueError(f"density integrates to 1{defect:+e}, beyond quad_tol")
    space.meta.setdefault("normalization_defect", defect)


def _grid_frame(self) -> dict:
    """Coordinate of every node, one array per axis name, built once as
    broadcast views of the axis nodes (no per-node copies)."""
    frame = self._cache.get("frame")
    if frame is None:
        views = np.meshgrid(*self.grid, indexing="ij", copy=False)
        frame = {name: _frozen(view) for name, view in zip(self.axes, views)}
        self._cache["frame"] = frame
    return frame


def _grid_product(space, rv: RandomVariable | None) -> np.ndarray:
    """Node values of x*f, or f itself when ``rv`` is None; cached.

    The node scan runs once per variable; one with a non-finite node is
    cached as None and raises NonIntegrable on every call.
    """
    def build():
        if rv is None:
            return (space.values,)
        x = space.values_of(rv)
        return (_frozen(x * space.values) if np.all(np.isfinite(x)) else None,)

    g, = _memo(space, ("prod", id(rv) if rv is not None else None), rv, build)
    if g is None:
        raise NonIntegrable(f"{rv.name} is not finite on the grid")
    return g


def _grid_marginal(space, rv: RandomVariable | None, k: int) -> tuple:
    """(x*f integrated over every axis but ``k``, its antiderivative); cached.

    Both are 1D over the nodes of axis ``k``.  The trapezoid rule over the
    other axes is linear, so it runs once here and a window along ``k``
    clips only this marginal.
    """
    def build():
        others = space.pitches[:k] + space.pitches[k + 1:]
        marg = _frozen(_trapezoid(np.moveaxis(_grid_product(space, rv), k, 0), others))
        return marg, _frozen(quad.cumulative(marg, space.pitches[k]))

    return _memo(space, ("marg", id(rv) if rv is not None else None, k), rv, build)


def _grid_moment(self, rv: RandomVariable | None, event: Event | None) -> Estimate:
    """E[1_A X]; with rv None the event mass, with event None the full mean.

    Interval events on an axis integrate x*f by the trapezoid rule over the
    other axes first, then exactly along the window's axis against the
    piecewise-linear interpolant; other events fall back to node-indicator
    quadrature.
    """
    g = _grid_product(self, rv)
    if event is None:
        return Estimate(float(_trapezoid(g, self.pitches)))
    if event.kind == "complement":
        return Estimate(self.moment(rv, None).value - self.moment(rv, event.base).value)
    if event.kind == "intervals" and event.rv.coord in self.axes:
        k = self.axes.index(event.rv.coord)
        marg, cum = _grid_marginal(self, rv, k)
        return Estimate(float(sum(quad.clip_integral(self.grid[k], marg, lo, hi, cum=cum)
                                  for lo, hi in event.pieces)))
    # Node-indicator fallback: O(pitch) accuracy at region boundaries.
    return Estimate(float(np.sum(_node_weights(self) * g * self.indicator(event))))


@dataclass(eq=False)
class DensityGrid1D:
    """Density values on a uniform 1D node grid over [lo, hi].

    The one-axis case of the grid code: ``axes``, ``ranges``, ``grid`` and
    ``pitches`` hold one entry each, also read as ``axis``, ``lo``, ``hi``,
    ``nodes`` and ``pitch``.
    """

    axis: str
    lo: float
    hi: float
    values: np.ndarray
    quad_tol: float = 1e-8
    name: str = "grid1d"
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.axes, self.ranges = (self.axis,), ((self.lo, self.hi),)
        _grid_setup(self)
        self.nodes, self.pitch = self.grid[0], self.pitches[0]

    frame = _grid_frame
    values_of = _frame_values_of
    indicator = _frame_indicator
    moment = _grid_moment
    cond = _ratio_cond


@dataclass(eq=False)
class DensityGrid2D:
    """Joint density values on a uniform rectangle grid.

    ``values[i, j]`` is the density at ``(nodes0[i], nodes1[j])``; ``nodes0``,
    ``nodes1``, ``pitch0`` and ``pitch1`` read the per-axis tuples.
    """

    axes: tuple
    ranges: tuple
    values: np.ndarray
    quad_tol: float = 1e-8
    name: str = "grid2d"
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.axes = tuple(self.axes)
        _grid_setup(self)
        self.nodes0, self.nodes1 = self.grid
        self.pitch0, self.pitch1 = self.pitches

    frame = _grid_frame
    values_of = _frame_values_of
    indicator = _frame_indicator
    moment = _grid_moment
    cond = _ratio_cond


# Rows per block when a draw family streams its last column.  Small blocks
# keep the per-block temporaries, which stay in malloc's per-thread pools,
# small: with 2^20-row blocks the shipped scenarios peaked at 121-132 MiB
# against 89-91 MiB.
DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class DrawFamily:
    """A built-in sample family: a head column drawn whole, then a last
    column drawn block by block.

    ``head(rng, out, params)`` draws the head column into the buffer ``out``
    and returns it by name.  ``last(rng, rows, out, params)`` draws one block
    of the last column into ``out`` and returns it with any column derived
    from it; ``rows`` holds the head column of that block.  Calling the
    family draws all ``n`` rows, the protocol of a custom ``draw`` callable.
    """

    head: Callable
    last: Callable

    def __call__(self, rng, n, params) -> dict:
        return _stream(self, rng, int(n), params, None)


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


def _release(col: np.ndarray, lo: int, hi: int) -> None:
    """Give the whole pages inside rows ``[lo, hi)`` of a mapped column back
    to the system; they read as zeros until written again."""
    region = getattr(col.base, "obj", None)
    if not isinstance(region, mmap.mmap) or not hasattr(region, "madvise"):
        return
    first = -(-lo * col.itemsize // mmap.PAGESIZE) * mmap.PAGESIZE
    end = hi * col.itemsize // mmap.PAGESIZE * mmap.PAGESIZE
    if first < end:
        region.madvise(mmap.MADV_DONTNEED, first, end - first)


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
    x *= math.sqrt(float(params.get("var_x", 1.0)))
    return {"x": x}


def _gaussian_sum_last(rng, rows, out, params):
    eps = rng.standard_normal(out=out)
    eps *= math.sqrt(float(params.get("var_noise", 1.0)))
    return {"eps": eps, "y": rows["x"] + eps}


_draw_gaussian_sum = DrawFamily(_gaussian_sum_head, _gaussian_sum_last)

DRAW_FAMILIES = {
    "standard-normal-pair": DrawFamily(
        _normal_z, lambda rng, rows, out, params: {"y": rng.standard_normal(out=out)}),
    "bivariate-normal": DrawFamily(_normal_z, _bivariate_last),
    "gaussian-sum": _draw_gaussian_sum,
    "uniform-square": DrawFamily(lambda rng, out, params: {"z": rng.random(out=out)},
                                 lambda rng, rows, out, params: {"y": rng.random(out=out)}),
}


def _stream(draw: Callable, rng, n: int, params, hull: Event | None) -> dict:
    """The ``n`` rows of ``draw``, or only those inside the interval event ``hull``.

    A ``DrawFamily`` draws its head column whole into an ``n``-row mapped
    column and its last column in blocks of ``DRAW_BLOCK`` rows; a custom
    ``draw`` callable is one block.  Blocks come in order from one
    generator, so their numbers equal one whole-array draw.  Without a hull
    each block is drawn straight into its place in a mapped column, and a
    column derived from it is copied into one.  With a hull, each block's
    frame is tested against it and its selected rows are written, in order,
    after the rows already kept at the front of every column; the head rows
    left behind go back to the system as the draw proceeds, so a draw holds
    about one head column plus the kept rows.
    """
    if isinstance(draw, DrawFamily):
        cols, size, tail = draw.head(rng, _mapped(n), params), DRAW_BLOCK, _mapped(n)
        # with a hull, last-column blocks go through one reused, cache-warm buffer
        buf = tail if hull is None else np.empty(min(size, n))
    else:
        cols, size, tail = draw(rng, n, params), max(n, 1), None
        if hull is not None:  # compacted in place below
            cols = {name: np.array(col) for name, col in cols.items()}
    kept = 0
    for start in range(0, max(n, 1), size):
        stop = min(start + size, n)
        frame = {name: col[start:stop] for name, col in cols.items()}
        if tail is not None:
            block = buf[start:stop] if hull is None else buf[:stop - start]
            drawn = draw.last(rng, frame, block, params)
            for name, col in drawn.items():
                if name not in cols:
                    cols[name] = tail if col is block else _mapped(n, col.dtype)
                if hull is None and col is not block:
                    cols[name][start:stop] = col
            frame |= drawn
        if hull is None:
            continue
        try:
            keep = np.flatnonzero(_interval_mask(
                _evaluate(hull.rv.fn, frame, (stop - start,)), hull.pieces))
        except Exception as exc:
            raise UndefinedPredicate(f"event {hull.name!r} failed on the frame: {exc}") from exc
        for name, col in cols.items():
            col[kept:kept + keep.size] = frame[name].take(keep)
            _release(col, kept + keep.size, stop)
        kept += keep.size
    return cols if hull is None else {name: col[:kept] for name, col in cols.items()}


def _draw(sampler: "Sampler") -> dict:
    """The sampler's columns: every row, or only the rows inside its hull."""
    rng = np.random.default_rng(np.random.SeedSequence(sampler.seed, spawn_key=sampler.spawn))
    draw = sampler.draw if sampler.draw is not None else DRAW_FAMILIES[sampler.family]
    return _stream(draw, rng, int(sampler.budget), sampler.params, sampler.hull)


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


@dataclass(eq=False)
class Sampler:
    """Seeded Monte Carlo space over named sample columns.

    Rows are drawn once, lazily, from ``DRAW_FAMILIES[family]`` (or a custom
    ``draw`` callable) with a PCG64 generator; the same seed always yields
    the identical sample, and ``substream(i)`` derives an independent child
    stream for parallel use.  ``restricted(hull)`` keeps only the rows
    inside an interval event; ``hull`` is None on a full stream.
    """

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    budget: int = 100_000
    spawn: tuple = ()
    draw: Callable | None = None
    name: str = "sampler"
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)
    hull: Event | None = field(default=None, init=False, repr=False)

    def columns(self) -> dict:
        """The drawn rows by column name: only the kept rows on a restricted stream."""
        cols = self._cache.get("columns")
        if cols is None:
            cols = self._cache["columns"] = _draw(self)
        return cols

    def substream(self, index: int) -> "Sampler":
        return replace(self, spawn=self.spawn + (int(index),),
                       meta=dict(self.meta), _cache={})

    def restricted(self, hull: Event) -> "Sampler":
        """This stream keeping only its rows inside the interval event ``hull``.

        The rows are drawn now, so on any thread; they are the full stream's
        rows inside the hull, in order, so every window inside the hull gives
        the numbers of the full stream, and ``budget`` stays the row count
        behind every probability.  ``columns()`` gives the kept rows.  Every
        query that reads rows as the sample (``frame``, ``values_of``,
        ``indicator``, an unconditional moment, ``pushforward``) raises
        OutsideHull, and so does an event that is not an interval of the
        hull's variable within it.
        """
        if hull.kind != "intervals":
            raise ValueError("a sampler stream restricts to an interval event")
        out = replace(self, meta=dict(self.meta), _cache={})
        out.hull = hull
        out._cache["columns"] = _draw(out)
        return out

    def _full_stream(self, query: str) -> None:
        if self.hull is not None:
            raise OutsideHull(f"{query} on {self.name!r} needs the full stream; "
                              f"it keeps only the rows inside {self.hull.name!r}")

    def _rows(self, event: Event) -> np.ndarray:
        """Indices of the rows inside ``event``."""
        if self.hull is None:
            return np.flatnonzero(self.indicator(event))
        if not _inside(event, self.hull):
            raise OutsideHull(f"event {event.name!r} is not an interval of "
                              f"{self.hull.rv.name!r} within {self.hull.name!r}")
        # the hull's variable on the kept rows, memoised as values_of would
        kept = self.columns()
        v, = _memo(self, ("rv", id(event.rv)), event.rv,
                   lambda: (_evaluate(event.rv.fn, kept, _frame_shape(kept)),))
        return np.flatnonzero(_interval_mask(v, event.pieces))

    def frame(self) -> dict:
        self._full_stream("a frame")
        return self.columns()

    def values_of(self, rv: RandomVariable) -> np.ndarray:
        # checked before the memo, which a restricted stream fills for its windows
        self._full_stream(f"the values of {rv.name!r}")
        return _frame_values_of(self, rv)

    def indicator(self, event: Event) -> np.ndarray:
        self._full_stream(f"the indicator of {event.name!r}")
        return _frame_indicator(self, event)

    def _masked_values(self, rv: RandomVariable, rows: np.ndarray, k: int) -> np.ndarray:
        return _evaluate(rv.fn, _RowFrame(self.columns(), rows), (k,))

    def moment(self, rv: RandomVariable | None, event: Event | None) -> Estimate:
        n = int(self.budget)
        if event is None:
            self._full_stream("an unconditional moment")
            if rv is None:
                return Estimate(1.0, 0.0, n)
            x = self.values_of(rv)
            return Estimate(float(x.mean()), float(x.std(ddof=1) / math.sqrt(n)), n)
        rows = self._rows(event)
        k = rows.size
        if rv is None:
            p = k / n
            return Estimate(p, math.sqrt(max(p * (1.0 - p), 0.0) / n), n)
        if k == 0:
            return Estimate(0.0, 0.0, n)
        xs = self._masked_values(rv, rows, k)
        m1 = float(xs.sum()) / n
        m2 = float((xs * xs).sum()) / n
        return Estimate(m1, math.sqrt(max(m2 - m1 * m1, 0.0) / n), n)

    def cond(self, rv: RandomVariable, event: Event, floor: float) -> ConditionalEstimate:
        rows = self._rows(event)
        k = rows.size
        n = int(self.budget)
        p = k / n
        if k == 0 or p < floor:
            return ConditionalEstimate(0.0, n=k, prob=p, degenerate=True)
        xs = self._masked_values(rv, rows, k)
        mean = float(xs.mean())
        se = float(xs.std(ddof=1) / math.sqrt(k)) if k > 1 else float("inf")
        return ConditionalEstimate(mean, se=se, n=k, prob=p)


GridSpace = DensityGrid1D | DensityGrid2D
ProbabilitySpace = DiscreteAtoms | GridSpace | Sampler


# ---------------------------------------------------------------------------
# Operations


def probability(space: ProbabilitySpace, event: Event) -> Estimate:
    """P(A) by exact weight sum, clipped quadrature, or sample fraction."""
    hit = event._prob.get(id(space))
    if hit is not None:
        return hit[1]
    est = space.moment(None, event)
    # keep the space alive alongside its estimate so the id cannot be reused
    event._prob[id(space)] = (space, est)
    return est


def expectation(space: ProbabilitySpace, rv: RandomVariable) -> Estimate:
    """E[X] by weighted sum, quadrature, or sample mean."""
    return space.moment(rv, None)


def indicator_moment(space: ProbabilitySpace, rv: RandomVariable, event: Event) -> Estimate:
    """E[1_A X], the one-sided building block of every conditioning formula."""
    return space.moment(rv, event)


def cond_expectation_event(space: ProbabilitySpace, rv: RandomVariable,
                           event: Event, floor: float = PROB_FLOOR) -> ConditionalEstimate:
    """E[X | A] = E[1_A X] / P(A) for P(A) > 0, and 0 on the degenerate branch.

    A zero-mass event is degenerate on every space.  Discrete spaces ignore
    ``floor``; grids and samplers also treat mass below it as null because
    quadrature cannot witness exact nullity.
    """
    if isinstance(space, DiscreteAtoms):
        return space.cond(rv, event, 0.0)
    return space.cond(rv, event, floor)


def variance(space: ProbabilitySpace, rv: RandomVariable) -> float:
    """Variance of ``rv``, memoised on the space per variable."""
    def build():
        m = expectation(space, rv).value
        m2 = expectation(space, rv * rv).value
        return (max(m2 - m * m, 0.0),)

    return _memo(space, ("var", id(rv)), rv, build)[0]


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
        return DiscreteAtoms(tuple(float(lv) for lv in levels), weights,
                             name=f"law({rv.name})")
    if isinstance(space, GridSpace) and rv.coord in space.axes:
        if len(space.axes) == 1:
            return space
        k = space.axes.index(rv.coord)
        dens = _trapezoid(np.moveaxis(space.values, k, 0),
                          space.pitches[:k] + space.pitches[k + 1:])
        lo, hi = space.ranges[k]
        return DensityGrid1D(rv.coord, lo, hi, dens, quad_tol=space.quad_tol,
                             name=f"law({rv.name})")
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
    if total < PROB_FLOOR:
        raise EmptyRange(f"no mass of {rv.name} falls inside [{lo}, {hi}]")
    centers = 0.5 * (edges[:-1] + edges[1:])
    out = DiscreteAtoms(tuple(float(c) for c in centers), hist / total,
                        name=f"law({rv.name})")
    out.meta["mass_defect"] = 1.0 - total
    return out
