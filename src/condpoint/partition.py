"""Conditioning on finite positive-mass partitions.

A partition induces the piecewise-constant conditional expectation: the
center of mass of X on each cell, read back as a random variable.  The
verification predicate checks the two defining properties of a conditional
expectation candidate against a finite generator list: constancy on each
generator and the integral identity E[1_A X] = E[1_A Z] on every finite
union of generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InvalidPartition, ZeroEvidence
from .spaces import (
    DiscreteAtoms,
    Event,
    RandomVariable,
    Sampler,
    cond_expectation_event,
    indicator_moment,
    probability,
    union_events,
    PROB_FLOOR,
)

DISJOINT_TOL = 1e-12
EXHAUSTIVE_TOL = 1e-12
RESIDUAL_CELL_CAP = 1e-10


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
        discrete = isinstance(self.space, DiscreteAtoms)
        floor = 0.0 if discrete else PROB_FLOOR
        probs = [probability(self.space, c).value for c in self.cells]
        for c, p in zip(self.cells, probs):
            if p <= floor:
                raise InvalidPartition(f"cell {c.name!r} has mass {p!r}, not positive")
        for (i, a), (j, b) in combinations(enumerate(self.cells), 2):
            overlap = probability(self.space, a.intersect(b)).value
            if overlap > DISJOINT_TOL:
                raise InvalidPartition(
                    f"cells {a.name!r} and {b.name!r} overlap with mass {overlap!r}")
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
    cells = tuple(cells)
    values = tuple(float(v) for v in values)

    def fn(arg):
        out = None
        for ev, v in zip(cells, values):
            term = np.where(ev._eval(arg), v, 0.0)
            out = term if out is None else out + term
        return out[()] if np.ndim(out) == 0 else out

    return RandomVariable(name, fn)


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
        vals = [e.residual for e in self.entries if e.kind == kind]
        return max(vals) if vals else 0.0

    def to_json_dict(self) -> dict:
        return {
            "kind": "verification_report",
            "passed": self.passed,
            "measurable": self.measurable,
            "identity_ok": self.identity_ok,
            "checks": [
                {"kind": e.kind, "label": e.label, "residual": float(e.residual),
                 "tol": float(e.tol), "passed": e.passed}
                for e in self.entries
            ],
        }


def _values_on_event(space, rv: RandomVariable, event: Event) -> np.ndarray:
    ind = space.indicator(event)
    vals = space.values_of(rv)
    return vals.ravel()[ind.ravel()]


def verify_cond_exp(space, X: RandomVariable, candidate: RandomVariable,
                    generating_events, meas_tol: float = 1e-10,
                    identity_tol: float | None = None) -> VerificationReport:
    """Check a candidate conditional expectation against its generators.

    Measurability is tested as constancy of the candidate on each generator
    (spread max-min, including zero-mass points).  The integral identity is
    tested on every finite union of generators, which is exhaustive for the
    generated algebra of a finite list.  Failures are report entries, never
    exceptions.

    Default identity tolerance: 1e-12 on atoms, 1e-10 on samplers (the
    identity holds exactly for the empirical measure), 1e-6 on grids where a
    discontinuous candidate is smeared by interpolation near cell cuts.
    """
    gens = list(generating_events)
    if 2 ** len(gens) > 4096:
        raise ValueError("too many generators for exhaustive union checking")
    if identity_tol is None:
        if isinstance(space, DiscreteAtoms):
            identity_tol = 1e-12
        elif isinstance(space, Sampler):
            identity_tol = 1e-10
        else:
            identity_tol = 1e-6
    entries = []
    for ev in gens:
        vals = _values_on_event(space, candidate, ev)
        spread = float(vals.max() - vals.min()) if vals.size > 1 else 0.0
        entries.append(CheckEntry("measurability", ev.name, spread, meas_tol,
                                  spread <= meas_tol))
    entries.append(CheckEntry("identity", "empty", 0.0, identity_tol, True))
    for r in range(1, len(gens) + 1):
        for subset in combinations(range(len(gens)), r):
            union = gens[subset[0]] if r == 1 else union_events([gens[i] for i in subset])
            lhs = indicator_moment(space, X, union).value
            rhs = indicator_moment(space, candidate, union).value
            residual = abs(lhs - rhs)
            label = "+".join(gens[i].name for i in subset)
            entries.append(CheckEntry("identity", label, residual, identity_tol,
                                      residual <= identity_tol))
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
    if den <= 0.0 or (not isinstance(space, DiscreteAtoms) and den < PROB_FLOOR):
        raise ZeroEvidence(f"event {A.name!r} has no mass under any cell")
    return terms[k] / den
