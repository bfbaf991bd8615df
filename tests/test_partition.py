import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condpoint as cp
from condpoint import partition
from condpoint.errors import InvalidPartition, UnsupportedQuery, ZeroEvidence
from condpoint.partition import RESIDUAL_CELL_CAP


def test_dice_partition_values(dice, dice_X, dice_halves):
    pce = cp.partition_cond_exp(dice, dice_X, dice_halves)
    assert abs(pce.values[0] - 1.5) <= 1e-12
    assert abs(pce.values[1] - 4.5) <= 1e-12


def test_trivial_partition(dice, dice_X):
    whole = cp.Partition(dice, (cp.Event.from_atoms(set(dice.atoms), name="omega"),))
    pce = cp.partition_cond_exp(dice, dice_X, whole)
    assert abs(pce.values[0] - cp.expectation(dice, dice_X).value) <= 1e-12


def test_coin_pair_partition(coin_pair):
    total = cp.RandomVariable("sum", lambda w: w[0] + w[1])
    part = cp.Partition.from_atom_groups(
        coin_pair, [{(0, 0), (0, 1)}, {(1, 0), (1, 1)}], labels=["first0", "first1"])
    pce = cp.partition_cond_exp(coin_pair, total, part)
    assert pce.values[0] == 0.5 and pce.values[1] == 1.5


def test_induced_rv_constant_on_cells(dice, dice_X, dice_halves):
    pce = cp.partition_cond_exp(dice, dice_X, dice_halves)
    assert [pce.rv.fn(w) for w in dice.atoms] == [1.5, 1.5, 4.5, 4.5, 4.5, 4.5]


def test_tower_property_discrete(dice, dice_X, dice_halves):
    pce = cp.partition_cond_exp(dice, dice_X, dice_halves)
    assert abs(pce.mean() - cp.expectation(dice, dice_X).value) <= 1e-12
    assert abs(cp.expectation(dice, pce.rv).value
               - cp.expectation(dice, dice_X).value) <= 1e-12


def test_integral_identity_per_cell(dice, dice_X, dice_halves):
    pce = cp.partition_cond_exp(dice, dice_X, dice_halves)
    for i, cell in enumerate(dice_halves.cells):
        lhs = cp.indicator_moment(dice, dice_X, cell).value
        assert abs(pce.cell_moment(i) - lhs) <= 1e-12


def test_tower_property_grid(normal_grid):
    y = cp.coordinate("y")
    part = cp.Partition.from_interval_cuts(normal_grid, y, [-0.7, 0.4])
    pce = cp.partition_cond_exp(normal_grid, y * y, part)
    assert abs(pce.mean() - cp.expectation(normal_grid, y * y).value) <= 1e-8


def test_verify_accepts_construction(dice, dice_X, dice_halves):
    pce = cp.partition_cond_exp(dice, dice_X, dice_halves)
    report = cp.verify_cond_exp(dice, dice_X, pce.rv, list(dice_halves.cells))
    assert report.passed
    assert report.max_residual("identity") <= 1e-12
    assert report.max_residual("measurability") == 0.0


def test_verify_rejects_non_measurable_candidate(dice, dice_X, dice_halves):
    # X itself varies inside each cell, so measurability must fail
    report = cp.verify_cond_exp(dice, dice_X, dice_X, list(dice_halves.cells))
    assert not report.measurable and not report.passed
    assert report.identity_ok  # E[1_A X] = E[1_A X] trivially


def test_verify_detects_shifted_cell_value(dice, dice_X, dice_halves):
    pce = cp.partition_cond_exp(dice, dice_X, dice_halves)
    v0, v1 = pce.values
    shifted = cp.RandomVariable("shifted", lambda w: (v0 + 1.0) if w in {1, 2} else v1)
    report = cp.verify_cond_exp(dice, dice_X, shifted, list(dice_halves.cells))
    assert report.measurable and not report.identity_ok
    bad = {e.label: e.residual for e in report.entries
           if e.kind == "identity" and not e.passed}
    p_low = cp.probability(dice, dice_halves.cells[0]).value
    assert any(abs(r - p_low) <= 1e-12 for r in bad.values())


def test_verify_union_of_touching_cells_skips_their_shared_atom():
    # the candidate differs from X only at the atom 0, which no generator holds
    space = cp.DiscreteAtoms.uniform((-1, 0, 1))
    X = cp.RandomVariable("X", lambda w: float(w))
    Z = cp.RandomVariable("Z", lambda w: 5.0 if w == 0 else float(w))
    gens = [cp.Event.interval(X, -math.inf, 0.0), cp.Event.interval(X, 0.0, math.inf)]
    report = cp.verify_cond_exp(space, X, Z, gens)
    assert report.passed and report.max_residual("identity") == 0.0


def _check_worst_union(space, X, Z, cells, tol):
    """The report's largest identity residual is the largest |E[1_U (X - Z)]|
    over every union U of cells, taken as one direct moment per union, on a
    candidate whose cell residuals have mixed signs."""
    signed = [cp.indicator_moment(space, X - Z, c).value for c in cells]
    assert min(signed) < 0 < max(signed)
    direct = max(abs(cp.indicator_moment(space, X - Z, cp.union_events(subset)).value)
                 for r in range(1, len(cells) + 1)
                 for subset in itertools.combinations(cells, r))
    got = cp.verify_cond_exp(space, X, Z, cells).max_residual("identity")
    assert abs(got - direct) <= tol


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_verify_worst_union_is_the_largest_union_moment_on_3d6(seed):
    atoms = list(itertools.product(range(1, 7), repeat=3))
    space = cp.DiscreteAtoms(tuple(atoms), np.full(len(atoms), 1.0 / len(atoms)))
    X = cp.RandomVariable("sum", lambda w: w[0] + w[1] + w[2])
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 8, size=len(atoms))
    labels[:8] = np.arange(8)
    part = cp.Partition.from_atom_groups(
        space, [[a for a, c in zip(atoms, labels) if c == k] for k in range(8)],
        labels=[f"c{k}" for k in range(8)])
    values = cp.partition_cond_exp(space, X, part).values + rng.normal(0.0, 1.0, size=8)
    Z = cp.RandomVariable("Z", dict(zip(atoms, values[labels])).__getitem__)
    _check_worst_union(space, X, Z, part.cells, 1e-15)


def test_verify_worst_union_is_the_largest_union_moment_on_grid_and_sampler(
        normal_grid, gaussian_sum_sampler):
    x, y = cp.coordinate("x"), cp.coordinate("y")
    part = cp.Partition.from_interval_cuts(normal_grid, y, [-1.0, -0.3, 0.4, 1.2])
    _check_worst_union(normal_grid, y * y, 0.5 * y + 0.9, part.cells, 1e-12)
    part = cp.Partition.from_interval_cuts(gaussian_sum_sampler, y, [-1.0, 0.0, 0.5, 1.0])
    _check_worst_union(gaussian_sum_sampler, x, 0.4 * y + 0.01, part.cells, 1e-12)


def test_verify_rejects_overlapping_generators(dice, dice_X):
    # E[X | sigma(A, B)] is 1.5, 3.5 and 5.5 on {1, 2}, {3, 4} and {5, 6}
    A = cp.Event.from_atoms({1, 2, 3, 4}, name="A")
    B = cp.Event.from_atoms({3, 4, 5, 6}, name="B")
    truth = cp.RandomVariable("E[X|A,B]", lambda w: 1.5 + 2.0 * ((w - 1) // 2))
    with pytest.raises(UnsupportedQuery,
                       match=r"generators 'A' and 'B' overlap with mass 0\.333"):
        cp.verify_cond_exp(dice, dice_X, truth, [A, B])


def test_verify_default_sampler_tolerance():
    space = cp.Sampler("gaussian-sum", {"var_x": 1.0, "var_noise": 1.0},
                       seed=20260811, budget=200_000)
    x, y = cp.coordinate("x"), cp.coordinate("y")
    part = cp.Partition.from_interval_cuts(space, y, [-1.0, 0.0, 1.0])
    exact = cp.partition_cond_exp(space, x, part).rv
    report = cp.verify_cond_exp(space, x, exact, part.cells)
    assert {e.tol for e in report.entries if e.kind == "identity"} == {1e-10}
    assert report.passed and report.max_residual("identity") <= 1e-14
    constant = cp.RandomVariable("zero", lambda f: np.zeros_like(f["y"]))
    report = cp.verify_cond_exp(space, x, constant, part.cells)
    assert report.measurable and not report.identity_ok


def test_verify_report_json_roundtrip(dice, dice_X, dice_halves):
    pce = cp.partition_cond_exp(dice, dice_X, dice_halves)
    doc = cp.verify_cond_exp(dice, dice_X, pce.rv, list(dice_halves.cells)).to_json_dict()
    assert doc["passed"] is True
    assert {c["kind"] for c in doc["checks"]} == {"measurability", "identity"}


def test_total_probability_dice(dice, dice_halves):
    A = cp.Event.from_atoms({5})
    got = cp.total_probability(dice, A, dice_halves)
    assert abs(got - 1.0 / 6.0) <= 1e-15
    assert abs(got - cp.probability(dice, A).value) <= 1e-15


def test_total_probability_trivial_events(dice, dice_halves):
    omega = cp.Event.from_atoms(set(dice.atoms))
    empty = cp.Event.from_atoms(set())
    assert abs(cp.total_probability(dice, omega, dice_halves) - 1.0) <= 1e-12
    assert cp.total_probability(dice, empty, dice_halves) == 0.0


def test_bayes_dice(dice, dice_halves):
    A = cp.Event.from_atoms({5})
    assert cp.bayes_discrete(dice, A, dice_halves, 1) == 1.0
    assert cp.bayes_discrete(dice, A, dice_halves, 0) == 0.0


def test_bayes_posterior_normalizes(dice, dice_halves):
    A = cp.Event.from_atoms({2, 3, 5})
    total = math.fsum(cp.bayes_discrete(dice, A, dice_halves, k)
                      for k in range(len(dice_halves)))
    assert abs(total - 1.0) <= 1e-12


def test_bayes_two_urns():
    urns = cp.DiscreteAtoms((("u1", "hit"), ("u1", "miss"), ("u2", "hit"), ("u2", "miss")),
                            np.array([0.5, 0.0, 0.25, 0.25]))
    part = cp.Partition.from_atom_groups(
        urns, [{("u1", "hit"), ("u1", "miss")}, {("u2", "hit"), ("u2", "miss")}],
        labels=["urn1", "urn2"])
    A = cp.Event.where(lambda w: w[1] == "hit", "hit")
    assert abs(cp.bayes_discrete(urns, A, part, 0) - 2.0 / 3.0) <= 1e-15


def test_bayes_zero_evidence(dice, dice_halves):
    with pytest.raises(ZeroEvidence):
        cp.bayes_discrete(dice, cp.Event.from_atoms(set()), dice_halves, 0)


def test_invalid_partitions(dice):
    with pytest.raises(InvalidPartition):  # overlap
        cp.Partition.from_atom_groups(dice, [{1, 2, 3}, {3, 4, 5, 6}])
    with pytest.raises(InvalidPartition):  # gap
        cp.Partition.from_atom_groups(dice, [{1, 2}, {4, 5, 6}])
    with pytest.raises(InvalidPartition):  # empty cell
        cp.Partition.from_atom_groups(dice, [set(), set(range(1, 7))])


def test_a_partition_without_cells_is_invalid(dice):
    with pytest.raises(InvalidPartition, match="^a partition needs at least one cell$"):
        cp.Partition(dice, ())


def test_residual_cell_truncation():
    # geometric law truncated after 35 atoms; the tail lump is one cell
    n = 35
    weights = [2.0 ** -(k + 1) for k in range(n)]
    tail = 1.0 - math.fsum(weights)
    space = cp.DiscreteAtoms(tuple(range(n + 1)), np.array(weights + [tail]))
    assert 0.0 < tail <= RESIDUAL_CELL_CAP
    cells = [cp.Event.from_atoms({k}) for k in range(n)] + [cp.Event.from_atoms({n})]
    part = cp.Partition(space, tuple(cells), residual_index=n)
    assert len(part) == n + 1
    with pytest.raises(InvalidPartition):
        cp.Partition(space, tuple(cells), residual_index=0)


@settings(max_examples=40, deadline=None)
@given(weights=st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=10),
       data=st.data())
def test_tower_property_random_spaces(weights, data):
    total = sum(weights)
    n = len(weights)
    space = cp.DiscreteAtoms(tuple(range(n)), np.array([w / total for w in weights]))
    vals = data.draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n))
    X = cp.RandomVariable("X", lambda i: vals[i])
    cut = data.draw(st.integers(min_value=1, max_value=n - 1))
    part = cp.Partition.from_atom_groups(space, [set(range(cut)), set(range(cut, n))])
    pce = cp.partition_cond_exp(space, X, part)
    scale = max(1.0, max(abs(v) for v in vals))
    assert abs(pce.mean() - cp.expectation(space, X).value) <= 1e-12 * scale
    for i, cell in enumerate(part.cells):
        lhs = cp.indicator_moment(space, X, cell).value
        assert abs(pce.cell_moment(i) - lhs) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(mask=st.integers(min_value=0, max_value=63), cut=st.integers(1, 5))
def test_total_probability_random_events(dice, mask, cut):
    A = cp.Event.from_atoms({w for w in range(1, 7) if mask & (1 << (w - 1))})
    part = cp.Partition.from_atom_groups(
        dice, [set(range(1, cut + 1)), set(range(cut + 1, 7))])
    assert abs(cp.total_probability(dice, A, part)
               - cp.probability(dice, A).value) <= 1e-12


@pytest.mark.parametrize("n", [1, 3, 5])
def test_verify_evaluates_one_indicator_per_pair_and_two_per_generator(monkeypatch, n):
    # predicates have no structural disjointness proof: one per pair for
    # disjointness, one per generator for measurability, then one per
    # generator for its identity moment
    space = cp.DiscreteAtoms(tuple(range(n)), np.full(n, 1.0 / n))
    X = cp.RandomVariable("X", lambda w: w)
    gens = [cp.Event.where(lambda w, k=k: w == k, f"a{k}") for k in range(n)]
    calls = []
    indicator = cp.DiscreteAtoms.indicator
    monkeypatch.setattr(cp.DiscreteAtoms, "indicator",
                        lambda self, event: calls.append(event) or indicator(self, event))
    assert cp.verify_cond_exp(space, X, X, gens).passed
    assert len(calls) == n * (n - 1) // 2 + n + n


def test_candidate_values_read_one_indicator_per_cell(monkeypatch):
    # 3d6 atoms in 8 atom-set cells, as on the discrete benchmark path
    atoms = list(itertools.product(range(1, 7), repeat=3))
    space = cp.DiscreteAtoms(tuple(atoms), np.full(len(atoms), 1.0 / len(atoms)))
    X = cp.RandomVariable("sum", lambda w: w[0] + w[1] + w[2])
    labels = np.random.default_rng(7).integers(0, 8, size=len(atoms))
    labels[:8] = np.arange(8)
    part = cp.Partition.from_atom_groups(
        space, [[a for a, c in zip(atoms, labels) if c == k] for k in range(8)])
    pce = cp.partition_cond_exp(space, X, part)
    pointwise = np.array([pce.rv.fn(a) for a in atoms])
    evals = []
    real_eval = cp.Event._eval
    monkeypatch.setattr(cp.Event, "_eval", lambda self, arg: evals.append(1) or real_eval(self, arg))
    got = space.values_of(pce.rv)
    assert evals == []
    assert got.tobytes() == pointwise.tobytes()


@pytest.mark.parametrize("n", [1, 3, 5])
def test_verify_proves_atom_set_generators_disjoint_by_counting(monkeypatch, n):
    # singletons: their sizes sum to the size of their union, so no pair is
    # intersected and only the two indicators per generator remain
    space = cp.DiscreteAtoms(tuple(range(n)), np.full(n, 1.0 / n))
    X = cp.RandomVariable("X", lambda w: w)
    gens = [cp.Event.from_atoms({k}, name=f"a{k}") for k in range(n)]
    calls = []
    indicator = cp.DiscreteAtoms.indicator
    monkeypatch.setattr(cp.DiscreteAtoms, "indicator",
                        lambda self, event: calls.append(event) or indicator(self, event))
    assert cp.verify_cond_exp(space, X, X, gens).passed
    assert calls == gens + gens


def test_interval_cells_are_proven_disjoint_without_an_intersection(normal_grid, monkeypatch):
    # 200 cells of one variable: sorting their pieces proves them disjoint,
    # so Partition takes only the cells' masses and verify none of its own
    y = cp.coordinate("y")
    intersected, masses = [], []
    intersect, probability = cp.Event.intersect, partition.probability
    monkeypatch.setattr(cp.Event, "intersect", lambda self, other, name=None: (
        intersected.append((self, other)) or intersect(self, other, name)))
    monkeypatch.setattr(partition, "probability", lambda space, event: (
        masses.append(event) or probability(space, event)))
    part = cp.Partition.from_interval_cuts(normal_grid, y, np.linspace(-4.0, 4.0, 199))
    assert len(part) == 200 and masses == list(part.cells)
    candidate = cp.partition_cond_exp(normal_grid, y, part).rv
    report = cp.verify_cond_exp(normal_grid, y, candidate, part.cells)
    assert report.measurable
    assert intersected == [] and len(masses) == 200


def test_overlaps_keep_the_first_pair_message(dice, dice_X, normal_grid):
    y = cp.coordinate("y")
    overlapping = {
        "intervals": (normal_grid, y, [cp.Event.interval(y, -math.inf, -1.0, name="A"),
                                       cp.Event.interval(y, -1.0, 0.5, name="B"),
                                       cp.Event.interval(y, 0.0, math.inf, name="C")],
                      r"'B' and 'C' overlap with mass 0\.1914"),
        "atom sets": (dice, dice_X, [cp.Event.from_atoms({1, 2}, name="A"),
                                     cp.Event.from_atoms({3, 4}, name="B"),
                                     cp.Event.from_atoms({4, 5, 6}, name="C")],
                      r"'B' and 'C' overlap with mass 0\.1666"),
        "mixed kinds": (dice, dice_X, [cp.Event.from_atoms({1, 2, 3}, name="A"),
                                       cp.Event.interval(dice_X, 2.5, math.inf, name="B")],
                        r"'A' and 'B' overlap with mass 0\.1666"),
    }
    for kind, (space, X, events, message) in overlapping.items():
        with pytest.raises(InvalidPartition, match="cells " + message):
            cp.Partition(space, tuple(events))
        with pytest.raises(UnsupportedQuery, match="generators " + message):
            cp.verify_cond_exp(space, X, X, events)
    # a mixed list without overlap passes the pairwise test
    cp.Partition(dice, (cp.Event.from_atoms({1, 2}), cp.Event.interval(dice_X, 2.5, math.inf)))
