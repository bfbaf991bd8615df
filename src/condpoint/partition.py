"""Conditioning on finite positive-mass partitions.

A partition induces the piecewise-constant conditional expectation: the
center of mass of X on each cell, read back as a random variable.  The
verification predicate checks the two defining properties of a conditional
expectation candidate against a finite list of disjoint generators: constancy
on each generator and the integral identity E[1_A X] = E[1_A Z] on every
union of generators, read from one moment per generator.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import combinations

import numpy as np

from .errors import InvalidPartition, UnsupportedQuery, ZeroEvidence
from .spaces import (
    Event,
    RandomVariable,
    _combination,
    _same_variable,
    cond_expectation_event,
    indicator_moment,
    is_null,
    probability,
    values_on,
)

DISJOINT_TOL = 1e-12
EXHAUSTIVE_TOL = 1e-12
RESIDUAL_CELL_CAP = 1e-10
MEASURABILITY_TOL = 1e-10


def _proven_disjoint(events) -> bool:
    """Whether ``events`` are disjoint by their structure alone, in O(n log n):
    interval events of one variable whose pieces, sorted by ``lo``, each end
    at or before the next one starts, or atom sets whose sizes sum to the
    size of their union."""
    if all(e.kind == "atoms" for e in events):
        union = frozenset().union(*(e.atoms for e in events))
        return sum(len(e.atoms) for e in events) == len(union)
    if all(e.kind == "intervals" and _same_variable(e.rv, events[0].rv) for e in events):
        pieces = sorted(p for e in events for p in e.pieces)
        # lo <= next lo as well: the sort cannot order a NaN end
        return all(lo <= b_lo and hi <= b_lo for (lo, hi), (b_lo, _) in zip(pieces, pieces[1:]))
    return False


def _require_disjoint(space, events, error, what: str) -> None:
    """Raise ``error`` naming the first pair of ``events`` overlapping beyond
    ``DISJOINT_TOL``; no mass is taken when ``_proven_disjoint`` holds."""
    if _proven_disjoint(events):
        return
    for a, b in combinations(events, 2):
        overlap = probability(space, a.intersect(b)).value
        if overlap > DISJOINT_TOL:
            raise error(f"{what} {a.name!r} and {b.name!r} overlap with mass {overlap!r}")


@dataclass(eq=False)
class Partition:
    """Finite disjoint positive-mass cover of a space.

    A countable family is shipped as its first cells plus one residual cell;
    ``residual_index`` marks it and its mass must not exceed
    ``RESIDUAL_CELL_CAP`` (the truncation is then faithful at desk scale).
    """

    space: object
    cells: tuple
    residual_index: int | None = None
    probs: np.ndarray = field(init=False)

    def __post_init__(self):
        self.cells = tuple(self.cells)
        if not self.cells:
            raise InvalidPartition("a partition needs at least one cell")
        probs = [probability(self.space, c).value for c in self.cells]
        for c, p in zip(self.cells, probs):
            if is_null(self.space, p):
                raise InvalidPartition(f"cell {c.name!r} has mass {p!r}, not positive")
        _require_disjoint(self.space, self.cells, InvalidPartition, "cells")
        total = self.space.moment(None, None).value
        if abs(math.fsum(probs) - total) > EXHAUSTIVE_TOL:
            raise InvalidPartition(
                f"cell masses sum to {math.fsum(probs)!r}, total mass is {total!r}")
        if self.residual_index is not None:
            if probs[self.residual_index] > RESIDUAL_CELL_CAP:
                raise InvalidPartition(
                    f"residual cell carries mass {probs[self.residual_index]!r} "
                    f"above the {RESIDUAL_CELL_CAP} truncation cap")
        self.probs = np.asarray(probs)

    @classmethod
    def from_atom_groups(cls, space, groups, labels=None) -> "Partition":
        labels = labels or [None] * len(groups)
        cells = [Event.from_atoms(g, name=lb) for g, lb in zip(groups, labels)]
        return cls(space, tuple(cells))

    @classmethod
    def from_interval_cuts(cls, space, rv: RandomVariable, cuts) -> "Partition":
        """Cells (-inf, c1), (c1, c2), ..., (ck, +inf) on a coordinate rv."""
        edges = [-math.inf, *sorted(float(c) for c in cuts), math.inf]
        cells = [Event.interval(rv, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        return cls(space, tuple(cells))

    def __len__(self):
        return len(self.cells)


def _piecewise_rv(cells, values, name: str) -> RandomVariable:
    """Cell-indicator combination; points outside every (open) cell map to 0."""
    values = tuple(float(v) for v in values)

    def op(*masks):
        # terms added left to right from the first: a leading 0 would turn -0.0 into 0.0
        out = np.where(masks[0], values[0], 0.0)
        for mask, v in zip(masks[1:], values[1:]):
            out = out + np.where(mask, v, 0.0)
        return out[()] if np.ndim(out) == 0 else out

    return _combination(name, op, *cells)


@dataclass(eq=False)
class PartitionCondExp:
    """Per-cell conditional expectations and the induced random variable."""

    partition: Partition
    values: np.ndarray
    rv: RandomVariable

    def mean(self) -> float:
        """E over the whole space, computed cellwise: sum of v_i * P(B_i)."""
        return math.fsum(v * p for v, p in zip(self.values, self.partition.probs))

    def cell_moment(self, i: int) -> float:
        """E[1_{B_i} * induced rv], exact cellwise: v_i * P(B_i)."""
        return float(self.values[i]) * float(self.partition.probs[i])

    def to_json_dict(self) -> dict:
        return {
            "kind": "partition_cond_exp",
            "cells": [
                {"name": c.name, "prob": float(p), "value": float(v)}
                for c, p, v in zip(self.partition.cells, self.partition.probs, self.values)
            ],
            "mean": self.mean(),
        }


def partition_cond_exp(space, X: RandomVariable, partition: Partition) -> PartitionCondExp:
    """The conditional expectation given the partition's generated algebra.

    Each cell gets the regular-event conditional value; the induced variable
    is constant on cells by construction.
    """
    values = [cond_expectation_event(space, X, c).value for c in partition.cells]
    rv = _piecewise_rv(partition.cells, values, f"E[{X.name}|partition]")
    return PartitionCondExp(partition, np.asarray(values), rv)


@dataclass(frozen=True)
class CheckEntry:
    kind: str  # "measurability" | "identity"
    label: str
    residual: float
    tol: float
    passed: bool


@dataclass(eq=False)
class VerificationReport:
    entries: list
    measurable: bool
    identity_ok: bool

    @property
    def passed(self) -> bool:
        return self.measurable and self.identity_ok

    def max_residual(self, kind: str) -> float:
        return max((e.residual for e in self.entries if e.kind == kind), default=0.0)

    def to_json_dict(self) -> dict:
        return {
            "kind": "verification_report",
            "passed": self.passed,
            "measurable": self.measurable,
            "identity_ok": self.identity_ok,
            "checks": [asdict(e) for e in self.entries],
        }


def verify_cond_exp(space, X: RandomVariable, candidate: RandomVariable,
                    generating_events) -> VerificationReport:
    """Check a candidate conditional expectation against disjoint generators.

    Overlapping generators (intersection mass above ``DISJOINT_TOL``) raise
    UnsupportedQuery; null ones are allowed.  Measurability is constancy of
    the candidate on each generator (spread max-min, including zero-mass
    points) within ``MEASURABILITY_TOL``, 1e-10.  The identity is checked on
    unions of generators only, not outside every generator, from one residual
    r_g = E[1_g (X - Z)] each: the worst union joins the generators of the
    sign whose fsum is larger in size (positive on a tie; all if every r_g is
    0), within the space kind's ``identity_tol``.  Failures are report
    entries, never exceptions.
    """
    gens = list(generating_events)
    _require_disjoint(space, gens, UnsupportedQuery, "generators")
    identity_tol = space.identity_tol
    entries = []
    for ev in gens:
        vals = values_on(space, candidate, ev)
        spread = float(vals.max() - vals.min()) if vals.size > 1 else 0.0
        entries.append(CheckEntry("measurability", ev.name, spread, MEASURABILITY_TOL,
                                  spread <= MEASURABILITY_TOL))
    gap = X - candidate
    signed = [indicator_moment(space, gap, ev).value for ev in gens]
    largest, sign = max((s * math.fsum(r for r in signed if s * r > 0), s) for s in (1, -1))
    worst = [ev for ev, r in zip(gens, signed) if sign * r > 0] or gens
    unions = [("empty", 0.0), *((ev.name, abs(r)) for ev, r in zip(gens, signed))]
    if len(worst) > 1:
        unions.append(("+".join(ev.name for ev in worst), largest))
    entries += [CheckEntry("identity", label, residual, identity_tol, residual <= identity_tol)
                for label, residual in unions]
    measurable = all(e.passed for e in entries if e.kind == "measurability")
    identity_ok = all(e.passed for e in entries if e.kind == "identity")
    return VerificationReport(entries, measurable, identity_ok)


def _joint_terms(space, A: Event, partition: Partition) -> list:
    """P(A|B_i) * P(B_i) per cell, with P(A|B_i) = P(A & B_i) / P(B_i)."""
    return [probability(space, A.intersect(cell)).value / p * p
            for cell, p in zip(partition.cells, partition.probs)]


def total_probability(space, A: Event, partition: Partition) -> float:
    """Sum of P(A|B_i) * P(B_i) over the cells."""
    return math.fsum(_joint_terms(space, A, partition))


def bayes_discrete(space, A: Event, partition: Partition, k: int) -> float:
    """Posterior mass of cell k given the event A."""
    terms = _joint_terms(space, A, partition)
    den = math.fsum(terms)
    if is_null(space, den):
        raise ZeroEvidence(f"event {A.name!r} has no mass under any cell")
    return terms[k] / den
