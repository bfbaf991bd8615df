import numpy as np
import pytest

import condpoint as cp
from condpoint.errors import EmptyLevelSet, NotMeasurable
from condpoint.factorization import FACTORED, NOT_MEASURABLE, factorize, pointwise_from_any_omega


def two_point_space():
    return cp.DiscreteAtoms(("w1", "w2"), np.array([0.5, 0.5]))


def test_constant_map_counterexample():
    # two points, f constant, g split: no factor phi with g = phi . f exists
    space = two_point_space()
    g = cp.RandomVariable("g", lambda w: {"w1": 1.0, "w2": 2.0}[w])
    f = cp.RandomVariable("f", lambda w: 0.0)
    res = factorize(space, g, f, [0.0])
    assert res.verdict == NOT_MEASURABLE
    assert res.witnesses == [[1.0, 2.0]]


def test_round_trip_exact(dice):
    phi = {1.0: -3.5, 2.0: 0.25, 3.0: 11.0}
    Y = cp.RandomVariable("Y", lambda w: float((w - 1) % 3 + 1))
    g = cp.RandomVariable("g", lambda w: phi[float((w - 1) % 3 + 1)])
    res = factorize(dice, g, Y, [1.0, 2.0, 3.0])
    assert res.verdict == FACTORED
    assert res.table == phi


def test_partition_cond_exp_factors_through_level_partition(dice, dice_X):
    Y = cp.RandomVariable("Y", lambda w: w % 2)
    part = cp.Partition.from_atom_groups(dice, [{1, 3, 5}, {2, 4, 6}])
    pce = cp.partition_cond_exp(dice, dice_X, part)
    res = factorize(dice, pce.rv, Y, [1.0, 0.0])
    assert res.verdict == FACTORED
    # phi at each attained value matches the window limit at that atom level
    for level, want in res.table.items():
        tr = cp.window_estimate(dice, dice_X, Y, level,
                                schedule=cp.Schedule(eps0=0.4, depth=3))
        assert tr.value == want


def test_pointwise_from_any_omega_dice(dice, dice_X):
    Y = cp.RandomVariable("Y", lambda w: w % 2)
    part = cp.Partition.from_atom_groups(dice, [{1, 3, 5}, {2, 4, 6}])
    pce = cp.partition_cond_exp(dice, dice_X, part)
    val = pointwise_from_any_omega(dice, pce.rv, Y, 1.0)
    assert val == 3.0  # mean of {1, 3, 5}
    assert [pce.rv.fn(w) for w in (1, 3, 5)] == [val, val, val]


def test_pointwise_rejects_non_measurable(dice, dice_X):
    Y = cp.RandomVariable("Y", lambda w: w % 2)
    with pytest.raises(NotMeasurable) as info:
        pointwise_from_any_omega(dice, dice_X, Y, 1.0)
    assert sorted(info.value.witnesses) == [1.0, 3.0, 5.0]


def test_coin_pair_factorization(coin_pair):
    total = cp.RandomVariable("sum", lambda w: w[0] + w[1])
    first = cp.RandomVariable("first", lambda w: w[0])
    part = cp.Partition.from_atom_groups(coin_pair, [{(0, 0), (0, 1)}, {(1, 0), (1, 1)}])
    pce = cp.partition_cond_exp(coin_pair, total, part)
    res = factorize(coin_pair, pce.rv, first, [0.0, 1.0])
    assert res.verdict == FACTORED
    assert res.table == {0.0: 0.5, 1.0: 1.5}


def test_empty_level_set(dice, dice_X):
    Y = cp.RandomVariable("Y", lambda w: w % 2)
    with pytest.raises(EmptyLevelSet):
        pointwise_from_any_omega(dice, cp.RandomVariable("c", lambda w: 1.0), Y, 5.0)


def test_factorize_reports_empty_levels_without_error(dice):
    c = cp.RandomVariable("c", lambda w: 1.0)
    Y = cp.RandomVariable("Y", lambda w: w % 2)
    res = factorize(dice, c, Y, [0.0, 1.0, 7.0])
    assert res.verdict == FACTORED
    assert res.witnesses[2] == []
    assert 7.0 not in res.table


def test_grid_band_factorization(gaussian_sum_grid):
    # a function of the y coordinate factors through y on a thin band
    y = cp.coordinate("y")
    g = cp.RandomVariable("g", lambda f: 3.0 * f["y"] + 1.0)
    node = float(gaussian_sum_grid.grid[1][600])
    res = factorize(gaussian_sum_grid, g, y, [node])
    assert res.verdict == FACTORED
    assert res.band_width == pytest.approx(0.5 * gaussian_sum_grid.pitches[1])
    assert abs(res.table[node] - (3.0 * node + 1.0)) <= 1e-10


def test_grid_band_detects_dependence_on_other_axis(gaussian_sum_grid):
    y = cp.coordinate("y")
    x = cp.coordinate("x")
    res = factorize(gaussian_sum_grid, x, y, [0.0])
    assert res.verdict == NOT_MEASURABLE
    assert len(res.witnesses[0]) > 1


def test_level_set_check_matches_verify_measurability(dice, dice_X):
    # single-valuedness on level sets and the verify constancy check agree
    Y = cp.RandomVariable("Y", lambda w: w % 3)
    cells = [cp.Event.from_atoms({w for w in dice.atoms if w % 3 == r}, name=f"r{r}")
             for r in range(3)]
    for cand in (dice_X, cp.RandomVariable("g", lambda w: float(w % 3))):
        res = factorize(dice, cand, Y, [0.0, 1.0, 2.0])
        report = cp.verify_cond_exp(dice, dice_X, cand, cells)
        assert (res.verdict == FACTORED) == report.measurable


def test_factorization_json(dice):
    c = cp.RandomVariable("c", lambda w: 1.0)
    Y = cp.RandomVariable("Y", lambda w: w % 2)
    doc = factorize(dice, c, Y, [0.0, 1.0]).to_json_dict()
    assert doc["kind"] == "factorization" and doc["verdict"] == FACTORED
    assert doc["levels"][0]["witnesses"] == [1.0]
