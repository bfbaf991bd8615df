import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condpoint as cp
from condpoint.errors import EmptyRange, NonIntegrable, UndefinedPredicate

import oracles


def test_dice_event_probability(dice):
    A = cp.Event.from_atoms({1, 2})
    assert abs(cp.probability(dice, A).value - 1.0 / 3.0) <= 1e-15


def test_whole_space_probability_is_one(dice, normal_grid, uniform_square,
                                        gaussian_sum_sampler):
    omega_d = cp.Event.from_atoms(set(dice.atoms))
    assert abs(cp.probability(dice, omega_d).value - 1.0) <= 1e-12
    y = cp.coordinate("y")
    everything = cp.Event.interval(y, -math.inf, math.inf)
    assert abs(cp.probability(normal_grid, everything).value - 1.0) <= 1e-10
    assert abs(cp.probability(uniform_square, everything).value - 1.0) <= 1e-12
    assert abs(cp.probability(gaussian_sum_sampler, everything).value - 1.0) <= 1e-12


def test_normal_grid_half_line(normal_grid):
    y = cp.coordinate("y")
    # exact interval path
    p = cp.probability(normal_grid, cp.Event.interval(y, -math.inf, 0.0))
    assert abs(p.value - 0.5) <= 1e-9
    # predicate fallback carries O(pitch) boundary error
    p2 = cp.probability(normal_grid, cp.Event.where(lambda f: f["y"] <= 0.0, "left"))
    assert abs(p2.value - 0.5) <= 2.0 * normal_grid.pitch * oracles.normal_pdf(0.0)


def test_dice_expectation(dice, dice_X):
    assert abs(cp.expectation(dice, dice_X).value - 3.5) <= 1e-12


def test_constant_expectation(dice, uniform_square):
    c = cp.RandomVariable("c", lambda _: 2.75)
    assert cp.expectation(dice, c).value == 2.75
    assert abs(cp.expectation(uniform_square, c).value - 2.75) <= 1e-12


def test_normal_second_moment(normal_grid):
    y = cp.coordinate("y")
    assert abs(cp.expectation(normal_grid, y * y).value - 1.0) <= 1e-6


def test_cond_expectation_dice_values(dice, dice_X):
    r1 = cp.cond_expectation_event(dice, dice_X, cp.Event.from_atoms({1, 2}))
    r2 = cp.cond_expectation_event(dice, dice_X, cp.Event.from_atoms({3, 4, 5, 6}))
    assert abs(r1.value - 1.5) <= 1e-12 and not r1.degenerate
    assert abs(r2.value - 4.5) <= 1e-12


def test_cond_expectation_null_branch(dice, dice_X):
    r = cp.cond_expectation_event(dice, dice_X, cp.Event.from_atoms(set()))
    assert r.value == 0.0 and r.degenerate and r.prob == 0.0


def test_cond_expectation_whole_space_matches_expectation(dice, dice_X):
    omega = cp.Event.from_atoms(set(dice.atoms))
    r = cp.cond_expectation_event(dice, dice_X, omega)
    assert abs(r.value - cp.expectation(dice, dice_X).value) <= 1e-12


def test_probability_cached_on_event(dice):
    A = cp.Event.from_atoms({5})
    first = cp.probability(dice, A)
    assert cp.probability(dice, A) is first


def test_pushforward_dice_parity(dice):
    parity = cp.RandomVariable("parity", lambda w: w % 2)
    law = cp.pushforward(dice, parity)
    assert law.atoms == (0.0, 1.0)
    assert np.allclose(law.weights, 0.5, atol=1e-12)


def test_pushforward_identity_grid(normal_grid):
    y = cp.coordinate("y")
    assert cp.pushforward(normal_grid, y) is normal_grid


def test_pushforward_marginal_of_joint(bivariate):
    joint = bivariate(0.5)
    law = cp.pushforward(joint, cp.coordinate("y"))
    ref = oracles.normal_pdf(law.nodes)
    assert np.abs(law.values - ref).max() <= 1e-6


def test_pushforward_binned_sampler(gaussian_sum_sampler):
    y = cp.coordinate("y")
    law = cp.pushforward(gaussian_sum_sampler, y, bins=(-8.0, 8.0, 64))
    assert abs(math.fsum(law.weights) - 1.0) <= 1e-12
    assert law.meta["mass_defect"] <= 1e-6


def test_pushforward_empty_range(gaussian_sum_sampler):
    with pytest.raises(EmptyRange):
        cp.pushforward(gaussian_sum_sampler, cp.coordinate("y"), bins=(100.0, 200.0, 4))


def test_undefined_predicate(dice):
    bad = cp.Event.where(lambda w: {1: True}[w], "partial")
    with pytest.raises(UndefinedPredicate):
        cp.probability(dice, bad)


def test_non_integrable_on_grid(normal_grid):
    inv = cp.RandomVariable("inv", lambda f: 1.0 / f["y"])
    with pytest.raises(NonIntegrable):
        cp.expectation(normal_grid, inv)


def test_sampler_determinism():
    a = cp.Sampler("gaussian-sum", {"var_x": 1.0, "var_noise": 1.0}, seed=99, budget=5000)
    b = cp.Sampler("gaussian-sum", {"var_x": 1.0, "var_noise": 1.0}, seed=99, budget=5000)
    x = cp.coordinate("x")
    ea, eb = cp.expectation(a, x), cp.expectation(b, x)
    assert ea.value == eb.value and ea.se == eb.se
    w = cp.Event.window(cp.coordinate("y"), 0.0, 0.5)
    assert cp.probability(a, w).value == cp.probability(b, w).value


def test_sampler_substreams_differ():
    a = cp.Sampler("standard-normal-pair", seed=7, budget=1000)
    assert not np.array_equal(a.substream(0).columns()["z"],
                              a.substream(1).columns()["z"])
    assert np.array_equal(a.substream(1).columns()["z"],
                          a.substream(1).columns()["z"])


def test_sampler_estimates_carry_se(gaussian_sum_sampler):
    x = cp.coordinate("x")
    est = cp.expectation(gaussian_sum_sampler, x)
    assert est.se > 0.0 and est.n == gaussian_sum_sampler.budget


def test_event_complement_and_intersection(dice, dice_X):
    A = cp.Event.from_atoms({1, 2})
    comp = cp.complement_within(dice, A)
    assert comp.kind == "atoms"
    assert abs(cp.probability(dice, comp).value - 2.0 / 3.0) <= 1e-12
    assert cp.probability(dice, A.intersect(comp)).value == 0.0
    y = cp.coordinate("y")
    w1 = cp.Event.interval(y, -1.0, 1.0)
    w2 = cp.Event.interval(y, 0.0, 3.0)
    both = w1.intersect(w2)
    assert both.kind == "intervals" and both.pieces == ((0.0, 1.0),)


def test_interval_complement_pieces():
    y = cp.coordinate("y")
    comp = cp.complement_within(object(), cp.Event.interval(y, -1.0, 1.0))
    assert comp.pieces == ((-math.inf, -1.0), (1.0, math.inf))


def test_grid2d_interval_window_mass(uniform_square):
    y = cp.coordinate("y")
    w = cp.Event.interval(y, 0.25, 0.75)
    assert abs(cp.probability(uniform_square, w).value - 0.5) <= 1e-12
    # partial cells: window narrower than the pitch still integrates exactly
    tiny = cp.Event.interval(y, 0.5 - 1e-4, 0.5 + 1e-4)
    assert abs(cp.probability(uniform_square, tiny).value - 2e-4) <= 1e-16


@settings(max_examples=60, deadline=None)
@given(weights=st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=12)
       .filter(lambda ws: sum(ws) > 0),
       xs=st.data())
def test_linearity_discrete(weights, xs):
    total = sum(weights)
    space = cp.DiscreteAtoms(tuple(range(len(weights))),
                             np.array([w / total for w in weights]))
    vals_x = xs.draw(st.lists(st.floats(-50, 50), min_size=len(weights),
                              max_size=len(weights)))
    vals_w = xs.draw(st.lists(st.floats(-50, 50), min_size=len(weights),
                              max_size=len(weights)))
    a = xs.draw(st.floats(-5, 5))
    b = xs.draw(st.floats(-5, 5))
    X = cp.RandomVariable("X", lambda i: vals_x[i])
    W = cp.RandomVariable("W", lambda i: vals_w[i])
    lhs = cp.expectation(space, a * X + b * W).value
    rhs = a * cp.expectation(space, X).value + b * cp.expectation(space, W).value
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_linearity_on_grid(normal_grid):
    y = cp.coordinate("y")
    lhs = cp.expectation(normal_grid, 2.0 * (y * y) + (-3.0) * y).value
    rhs = (2.0 * cp.expectation(normal_grid, y * y).value
           - 3.0 * cp.expectation(normal_grid, y).value)
    assert abs(lhs - rhs) <= 1e-12


def test_weight_validation():
    with pytest.raises(ValueError):
        cp.DiscreteAtoms((1, 2), np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        cp.DiscreteAtoms((1, 2), np.array([1.2, -0.2]))


def test_grid_normalization_validation():
    with pytest.raises(ValueError):
        cp.DensityGrid1D("y", 0.0, 1.0, np.full(11, 2.0), quad_tol=1e-8)


@pytest.mark.parametrize("make", [
    lambda: cp.DensityGrid1D("y", 0.0, 1.0, np.where(np.arange(11) == 5, np.nan, 1.0)),
    lambda: cp.DensityGrid1D("y", 0.0, 1.0, np.full(11, np.nan)),
    lambda: cp.DensityGrid2D(("z", "y"), ((0.0, 1.0), (0.0, 1.0)),
                             np.where(np.eye(11, dtype=bool), np.nan, 1.0)),
    lambda: cp.DensityGrid1D("y", 0.0, 1.0, np.where(np.arange(11) == 5, np.inf, 1.0)),
    lambda: cp.DensityGrid1D("y", 0.0, 100.0, np.full(11, 1e308)),
], ids=["nan-node-1d", "all-nan-1d", "nan-nodes-2d", "inf-node-1d", "overflowing-mass"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing sum warns
def test_grid_rejects_non_finite_density(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("make", [
    lambda: cp.DiscreteAtoms((0, 1, 2), np.array([0.0, 0.5, 0.5])),
    lambda: cp.DensityGrid1D("y", 0.0, 1.0, np.ones(11)),
    lambda: cp.DensityGrid2D(("z", "y"), ((0.0, 1.0), (0.0, 1.0)), np.ones((11, 11))),
    lambda: cp.Sampler("uniform-square", seed=1, budget=1000),
], ids=["atoms", "grid1d", "grid2d", "sampler"])
def test_zero_mass_event_is_degenerate_at_every_floor(make):
    space = make()
    if isinstance(space, cp.DiscreteAtoms):
        X = cp.RandomVariable("X", lambda w: w)
        null = cp.Event.from_atoms({0})
    else:
        X = cp.coordinate("y")
        null = cp.Event.interval(X, 2.0, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for floor in (0.0, 1e-12):
            got = cp.cond_expectation_event(space, X, null, floor=floor)
            assert got.degenerate
            assert got.value == 0.0 and got.prob == 0.0


# ---------------------------------------------------------------------------
# Grid windows: the other axes are integrated first, then one 1D marginal is
# clipped.  The reference below clips every line of nodes along the window's
# axis exactly and applies the trapezoid rule across those lines, in plain
# numpy.


def _offset_gaussian_sum_grid():
    """f(x, y) = phi(x - 0.5) phi(y - x) on a non-square 121x161 grid whose
    edges carry visible mass, normalised by the trapezoid rule."""
    xs, ys = np.linspace(-2.0, 3.0, 121), np.linspace(-2.5, 4.0, 161)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    f = np.exp(-0.5 * (gx - 0.5) ** 2 - 0.5 * (gy - gx) ** 2) / (2.0 * math.pi)
    f /= np.trapezoid(np.trapezoid(f, dx=ys[1] - ys[0], axis=1), dx=xs[1] - xs[0])
    return cp.DensityGrid2D(("x", "y"), ((-2.0, 3.0), (-2.5, 4.0)), f)


def _reference_window_moment(space, rv, k, pieces):
    """E[1_A X] for A = union of open intervals of axis k, computed as the
    exact integral of each line's piecewise-linear interpolant, then the
    trapezoid rule over the other axis."""
    g = space.values if rv is None else rv.fn(dict(zip(space.axes, np.meshgrid(
        *space.grid, indexing="ij")))) * space.values
    lines = np.moveaxis(g, k, -1)
    nodes = space.grid[k]
    total = 0.0
    for lo, hi in pieces:
        lo, hi = max(lo, nodes[0]), min(hi, nodes[-1])
        if hi <= lo:
            continue
        t = np.concatenate(([lo], nodes[(nodes > lo) & (nodes < hi)], [hi]))
        v = np.stack([np.interp(t, nodes, line) for line in lines])
        clipped = np.sum(0.5 * (v[:, 1:] + v[:, :-1]) * np.diff(t), axis=1)
        total += np.trapezoid(clipped, dx=space.pitches[1 - k])
    return float(total)


def _windows_on(nodes):
    h = nodes[1] - nodes[0]
    return {
        "inside-cell": (nodes[37] + 0.2 * h, nodes[37] + 0.7 * h),
        "on-nodes": (nodes[70], nodes[85]),
        "past-lower-end": (nodes[0] - 1.0, nodes[10] + 0.3 * h),
        "past-upper-end": (nodes[-12] - 0.4 * h, nodes[-1] + 1.0),
        "past-both-ends": (nodes[0] - 1.0, nodes[-1] + 1.0),
    }


@pytest.mark.parametrize("use_x", [False, True], ids=["mass", "x"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_grid_window_moment_matches_clipped_lines(axis, use_x):
    space = _offset_gaussian_sum_grid()
    k = space.axes.index(axis)
    A, rv = cp.coordinate(axis), (cp.coordinate("x") if use_x else None)
    windows = _windows_on(space.grid[k])
    events = {name: cp.Event.interval(A, lo, hi) for name, (lo, hi) in windows.items()}
    events["two-piece-union"] = cp.union_events([events["inside-cell"], events["on-nodes"]])
    events["complement-within"] = cp.complement_within(space, events["on-nodes"])
    assert len(events["two-piece-union"].pieces) == 2
    assert len(events["complement-within"].pieces) == 2
    for name, event in events.items():
        got = space.moment(rv, event).value
        ref = _reference_window_moment(space, rv, k, event.pieces)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0), name


def test_grid_window_caches_one_1d_marginal_per_axis():
    space = _offset_gaussian_sum_grid()
    x = cp.coordinate("x")
    for axis in space.axes:
        space.moment(x, cp.Event.window(cp.coordinate(axis), 0.3, 0.2))
        space.moment(None, cp.Event.window(cp.coordinate(axis), 0.3, 0.2))
    margs = {key: entry for key, entry in space._cache.items()
             if isinstance(key, tuple) and key[0] == "marg"}
    assert len(margs) == 4
    for (_, _, k), (_, marg, cum) in margs.items():
        assert marg.shape == cum.shape == (space.grid[k].shape[0],)


def test_grid_frame_is_views_of_the_axis_nodes():
    space = _offset_gaussian_sum_grid()
    frame = space.frame()
    for name, nodes in zip(space.axes, space.grid):
        assert np.shares_memory(frame[name], nodes)
        with pytest.raises(ValueError):
            frame[name][0, 0] = 1.0
    gx, gy = np.meshgrid(*space.grid, indexing="ij")
    x, y = cp.coordinate("x"), cp.coordinate("y")
    assert np.array_equal(space.values_of(x), gx)
    assert np.array_equal(space.values_of(y), gy)
    assert np.array_equal(space.values_of(x * y), gx * gy)


@pytest.mark.parametrize("space_name", ["normal_grid", "gaussian_sum_grid",
                                        "gaussian_sum_sampler"])
def test_interval_on_a_failing_variable_is_undefined(space_name, request):
    space = request.getfixturevalue(space_name)
    event = cp.Event.interval(cp.coordinate("nope"), 0.0, 1.0)
    with pytest.raises(UndefinedPredicate, match="nope"):
        space.indicator(event)
    with pytest.raises(UndefinedPredicate):
        cp.probability(space, event)


def test_grid_coordinate_values_are_views_of_the_axis_nodes():
    space = _offset_gaussian_sum_grid()
    for k, axis in enumerate(space.axes):
        vals = space.values_of(cp.coordinate(axis))
        assert vals.shape == space.values.shape
        assert np.shares_memory(vals, space.grid[k])
        assert not vals.flags.writeable
