import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condpoint as cp
from condpoint import spaces
from condpoint.config import expression_variable, load_space
from condpoint.errors import EmptyRange, NonIntegrable, UndefinedPredicate

import oracles
from conftest import SCENARIO_DIR


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
    assert abs(p2.value - 0.5) <= 2.0 * normal_grid.pitches[0] * oracles.normal_pdf(0.0)


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
    ref = oracles.normal_pdf(law.grid[0])
    assert np.abs(law.values - ref).max() <= 1e-6


def test_pushforward_binned_sampler(gaussian_sum_sampler):
    y = cp.coordinate("y")
    law = cp.pushforward(gaussian_sum_sampler, y, bins=(-8.0, 8.0, 64))
    assert abs(math.fsum(law.weights) - 1.0) <= 1e-12
    assert law.meta["mass_defect"] <= 1e-6


def test_pushforward_binned_grid_variable(normal_grid):
    y = cp.coordinate("y")
    law = cp.pushforward(normal_grid, y * y, bins=(0.0, 9.0, 30))
    edges = np.linspace(0.0, 9.0, 31)
    assert law.atoms == tuple(0.5 * (edges[:-1] + edges[1:]))
    assert abs(math.fsum(law.weights) - 1.0) <= 1e-12
    # P(a < Y^2 < b) = 2 (Phi(sqrt b) - Phi(sqrt a)); node masses smear each bin edge
    ref = 2.0 * np.diff(oracles.normal_cdf(np.sqrt(edges)))
    assert np.abs(law.weights * (1.0 - law.meta["mass_defect"]) - ref).max() <= 5e-3
    assert abs(law.meta["mass_defect"] - 2.0 * (1.0 - oracles.normal_cdf(3.0))) <= 1e-4


def test_pushforward_empty_range(gaussian_sum_sampler):
    with pytest.raises(EmptyRange):
        cp.pushforward(gaussian_sum_sampler, cp.coordinate("y"), bins=(100.0, 200.0, 4))


def test_pushforward_of_a_non_coordinate_needs_bins(normal_grid, gaussian_sum_sampler):
    y = cp.coordinate("y")
    for space in (normal_grid, gaussian_sum_sampler):
        with pytest.raises(ValueError, match=r"needs bins=\(lo, hi, count\)$"):
            cp.pushforward(space, y * y)


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


def test_a_one_row_sampler_mean_has_infinite_se():
    # one row shows no spread: se is inf, as on a one-row window, and no
    # RuntimeWarning (degrees of freedom <= 0) on the way
    space = cp.Sampler("standard-normal-pair", seed=1, budget=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = cp.expectation(space, cp.coordinate("y"))
    assert (est.value, est.se, est.n) == (space.columns()["y"][0], math.inf, 1)


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


def test_touching_open_intervals_keep_their_shared_atom():
    space = cp.DiscreteAtoms.uniform((-1, 0, 1))
    x = cp.RandomVariable("X", lambda w: float(w))
    union = cp.union_events([cp.Event.interval(x, -math.inf, 0.0),
                             cp.Event.interval(x, 0.0, math.inf)])
    assert union.pieces == ((-math.inf, 0.0), (0.0, math.inf))
    assert cp.probability(space, union).value == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_discrete_complement_keeps_interval_endpoints():
    space = cp.DiscreteAtoms.uniform((-1, 0, 1))
    x = cp.RandomVariable("X", lambda w: float(w))
    comp = cp.complement_within(space, cp.Event.interval(x, 0.0, 1.0))
    assert comp.kind == "atoms" and comp.atoms == frozenset(space.atoms)
    assert cp.probability(space, comp).value == 1.0


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


@pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.nan, math.nan]])
def test_nan_atom_weight_is_rejected(weights):
    with pytest.raises(ValueError, match="atom weights must be non-negative numbers"):
        cp.DiscreteAtoms((0, 1), np.array(weights))


@pytest.mark.parametrize("quad_tol", [math.nan, math.inf, -1.0])
def test_grid_quad_tol_must_be_finite_and_non_negative(quad_tol):
    # the density integrates to 0.34: no quad_tol may wave that through
    with pytest.raises(ValueError, match="quad_tol must be a finite number >= 0"):
        cp.DensityGrid1D("y", 0.0, 1.0, np.full(11, 0.34), quad_tol=quad_tol)


def test_a_grid_pitch_comes_from_its_range_at_any_offset():
    # the same density over [-8, 8] and over [1e8 - 8, 1e8 + 8]: far from 0
    # the gap of two node values carries their roundoff (0.01000000536 for
    # the first two), the range does not
    nodes = np.linspace(-8.0, 8.0, 1601)
    f = np.exp(-0.5 * nodes * nodes) / math.sqrt(2.0 * math.pi)
    near, far = (cp.DensityGrid1D("y", c - 8.0, c + 8.0, f) for c in (0.0, 1e8))
    assert near.pitches == far.pitches == (0.01,)
    assert near.meta["normalization_defect"] == far.meta["normalization_defect"]
    assert abs(far.meta["normalization_defect"]) < 1e-13


def test_grid_normalization_validation():
    with pytest.raises(ValueError):
        cp.DensityGrid1D("y", 0.0, 1.0, np.full(11, 2.0), quad_tol=1e-8)


@pytest.mark.parametrize("make", [
    lambda: cp.DensityGrid1D("y", 0.0, 1.0, np.where(np.arange(11) == 5, np.nan, 1.0)),
    lambda: cp.DensityGrid1D("y", 0.0, 1.0, np.full(11, np.nan)),
    lambda: cp.DensityGrid2D(("z", "y"), ((0.0, 1.0), (0.0, 1.0)),
                             np.where(np.eye(11, dtype=bool), np.nan, 1.0)),
    lambda: cp.DensityGrid1D("y", 0.0, 1.0, np.where(np.arange(11) == 5, np.inf, 1.0)),
    lambda: cp.DensityGrid1D("y", 0.0, 1.0, np.where(np.arange(11) == 10, np.inf, 1.0)),
    lambda: cp.DensityGrid2D(("z", "y"), ((0.0, 1.0), (0.0, 1.0)),
                             np.where(np.eye(11, dtype=bool), np.inf, 1.0)),
    lambda: cp.DensityGrid1D("y", 0.0, 100.0, np.full(11, 1e308)),
], ids=["nan-node-1d", "all-nan-1d", "nan-nodes-2d", "inf-node-1d", "inf-end-node-1d",
        "inf-nodes-2d", "overflowing-mass"])
def test_grid_rejects_non_finite_density(make):
    # a ValueError, and no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            make()


def test_normalization_defect_is_the_mass_that_moment_reads():
    space = load_space(SCENARIO_DIR / "spaces" / "bivariate-05.json").space
    assert space.meta["normalization_defect"] == space.moment(None, None).value - 1.0


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
        got = cp.cond_expectation_event(space, X, null)
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
    # one (nodes, 2) pair per variable and axis, its mass column the mass's
    margs = {key: entry for key, entry in space._cache.items()
             if isinstance(key, tuple) and key[0] == "marg"}
    assert len(margs) == 4
    for (_, _, k), (_, pair, cum) in margs.items():
        assert pair.shape == cum.shape == (space.grid[k].shape[0], 2)
        assert np.array_equal(pair[:, 0], margs["marg", None, k][1][:, 0])


def _plain_trapezoid(v, pitch):
    """quadrature.integrate's trapezoid over the last axis, in plain numpy."""
    return (v.sum(axis=-1) - 0.5 * (v[..., 0] + v[..., -1])) * pitch


@pytest.mark.parametrize("use_x", [False, True], ids=["mass", "x"])
def test_grid_full_mean_is_the_trapezoid_over_axis_1_then_axis_0(use_x):
    space = _offset_gaussian_sum_grid()
    p0, p1 = space.pitches
    if use_x:
        gx, _ = np.meshgrid(*space.grid, indexing="ij")
        ref = float(_plain_trapezoid(_plain_trapezoid(gx * space.values, p1), p0))
    else:  # the mass integrates along the conditioning axis last: axis 0, then axis 1
        ref = float(_plain_trapezoid(_plain_trapezoid(space.values.T, p0), p1))
    rv = cp.coordinate("x") if use_x else None
    for _ in range(2):  # the second call reads the cached marginal
        assert space.moment(rv, None).value == ref


def test_grid_predicate_event_is_the_node_indicator_sum():
    space = _offset_gaussian_sum_grid()
    gx, gy = np.meshgrid(*space.grid, indexing="ij")
    weights = []
    for nodes, pitch in zip(space.grid, space.pitches):
        w = np.full(nodes.shape[0], pitch)
        w[0] *= 0.5
        w[-1] *= 0.5
        weights.append(w)
    w = np.multiply.outer(*weights)
    event = cp.Event.where(lambda f: f["x"] + f["y"] > 0.3, "x+y>0.3")
    ref = float(np.sum(w * (gx * space.values) * (gx + gy > 0.3)))
    assert space.moment(cp.coordinate("x"), event).value == ref


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


def test_grid_complement_event_matches_complement_within(normal_grid):
    y = cp.coordinate("y")
    window = cp.Event.window(y, 0.5, 0.25)
    outer = cp.complement_within(normal_grid, window)
    assert outer.kind == "intervals" and window.complement().kind == "complement"
    for rv in (None, y):
        a = normal_grid.moment(rv, window.complement()).value
        assert abs(a - normal_grid.moment(rv, outer).value) <= 1e-12


# Operand pairs per space: values with no exact binary form, so a different
# evaluation order would show in the bits.
OPERANDS = [
    ("coin_pair", lambda w: 0.1 * w[0] + w[1] / 3.0, lambda w: w[0] - 0.7 * w[1]),
    ("normal_grid", lambda c: np.sin(c["y"]) / 3.0, lambda c: 0.1 * c["y"] ** 2),
    ("gaussian_sum_grid", lambda c: c["x"] / 3.0 + c["y"], lambda c: np.cos(c["x"] * c["y"])),
    ("gaussian_sum_sampler", lambda c: c["x"] / 3.0 + c["y"], lambda c: np.cos(c["x"] * c["y"])),
]


def _counted(name, fn, calls):
    def counted(point):
        calls[name] = calls.get(name, 0) + 1
        return fn(point)

    return cp.RandomVariable(name, counted)


def _pointwise(space, rv):
    """``rv`` evaluated point by point, as a fresh variable would be."""
    if isinstance(space, cp.DiscreteAtoms):
        return np.array([float(rv.fn(a)) for a in space.atoms])
    frame = space.frame()
    return np.broadcast_to(np.asarray(rv.fn(frame), dtype=float),
                           next(iter(frame.values())).shape)


@pytest.mark.parametrize("space_name, f, g", OPERANDS, ids=[o[0] for o in OPERANDS])
def test_combinations_read_their_operands_memoised_values(space_name, f, g, request):
    space = request.getfixturevalue(space_name)
    calls = {}
    X, Z = _counted("X", f, calls), _counted("Z", g, calls)
    space.values_of(X), space.values_of(Z)
    memoised = dict(calls)
    combos = [X - Z, -X, 2.5 * X + 0.25]
    got = [space.values_of(rv) for rv in combos]
    assert calls == memoised  # no operand function ran again
    for rv, values in zip(combos, got):
        want = _pointwise(space, rv)
        assert np.ascontiguousarray(values).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("space_name", ["coin_pair", "normal_grid", "gaussian_sum_grid",
                                        "gaussian_sum_sampler"])
def test_a_variable_reading_a_missing_name_is_undefined(space_name, request):
    space = request.getfixturevalue(space_name)
    discrete = isinstance(space, cp.DiscreteAtoms)
    bad = expression_variable("bad", "q * 2", discrete=discrete)
    first = cp.RandomVariable("first", lambda w: w[0]) if discrete else cp.coordinate("y")
    window = cp.Event.window(first, 1.0, 0.5)  # a window with mass on every space
    queries = [lambda: space.values_of(bad), lambda: space.moment(bad, None),
               lambda: space.moment(bad, window),
               lambda: cp.cond_expectation_event(space, bad, window)]
    if isinstance(space, cp.Sampler):
        queries.append(lambda: space.substream(0).cond_each(bad, [[window]]))
    for query in queries:
        with pytest.raises(UndefinedPredicate, match="'bad' failed: NameError"):
            query()


def test_atoms_keep_open_endpoints_out_of_an_interval_of_a_derived_variable(coin_pair):
    first = cp.RandomVariable("first", lambda w: w[0])
    second = cp.RandomVariable("second", lambda w: w[1])
    total = first + second  # 0, 1, 1, 2 on the four atoms
    assert coin_pair.members(cp.Event.interval(total, 1.0, 2.0)) == []
    assert coin_pair.members(cp.Event.interval(total, 0.0, 2.0)) == [(0, 1), (1, 0)]
    outer = cp.complement_within(coin_pair, cp.Event.interval(total, 0.0, 2.0))
    assert coin_pair.members(outer) == [(0, 0), (1, 1)]
    assert cp.probability(coin_pair, cp.Event.interval(total, 1.0, 2.0)).value == 0.0


def test_atoms_accept_a_predicate_returning_zero_or_one(coin_pair):
    heads_first = cp.Event.where(lambda w: int(w[0] == 1), "heads-first")
    assert coin_pair.members(heads_first) == [(1, 0), (1, 1)]
    assert cp.probability(coin_pair, heads_first).value == 0.5
    assert cp.probability(coin_pair, heads_first.complement()).value == 0.5


@pytest.mark.parametrize("space_name", ["normal_grid", "gaussian_sum_sampler"])
def test_a_predicate_returning_floats_on_a_frame_is_not_boolean(space_name, request):
    space = request.getfixturevalue(space_name)
    scaled = cp.Event.where(lambda frame: frame["y"] * 1.0, "scaled")
    with pytest.raises(UndefinedPredicate, match="is not boolean$"):
        cp.probability(space, scaled)


def test_union_of_overlapping_intervals_is_one_piece():
    x = cp.coordinate("x")
    union = cp.union_events([cp.Event.interval(x, -1.0, 1.0), cp.Event.interval(x, 0.0, 2.0)])
    assert union.kind == "intervals" and union.pieces == ((-1.0, 2.0),)


def test_a_union_of_no_events_is_a_value_error():
    with pytest.raises(ValueError, match="^empty union has no carrier"):
        cp.union_events([])
    with pytest.raises(ValueError, match="^empty union has no carrier"):
        cp.union_events(iter(()))


@pytest.mark.parametrize("space_name", ["normal_grid", "gaussian_sum_sampler"])
def test_complement_within_of_a_predicate_is_a_complement_node(space_name, request):
    space = request.getfixturevalue(space_name)
    high = cp.Event.where(lambda frame: frame["y"] > 0.5, "high")
    comp = cp.complement_within(space, high)
    assert comp.kind == "complement" and comp.base is high
    both = cp.probability(space, comp).value + cp.probability(space, high).value
    assert abs(both - space.moment(None, None).value) <= 1e-12


# ---------------------------------------------------------------------------
# Full means of variables along one axis: the axis's nodes against its cached
# mass marginal, no product over the grid.


def _full_grid_mean(space, fn):
    """E[X] and E[|X|] as the trapezoid over every axis of x*f on the whole
    grid, in plain numpy."""
    frame = dict(zip(space.axes, np.meshgrid(*space.grid, indexing="ij")))
    x = np.broadcast_to(np.asarray(fn(frame), dtype=float), space.values.shape)
    out = []
    for g in (x * space.values, np.abs(x) * space.values):
        for pitch in reversed(space.pitches):
            g = _plain_trapezoid(g, pitch)
        out.append(float(g))
    return out


def _count_grid_products(monkeypatch):
    """The variables whose x*f product over the grid gets built from now on
    (the mass, f itself, is no product)."""
    calls = []
    real = spaces._grid_product

    def counted(space, rv):
        if rv is not None:
            calls.append(rv)
        return real(space, rv)

    monkeypatch.setattr(spaces, "_grid_product", counted)
    return calls


def _one_axis_variables(axis):
    y = cp.coordinate(axis)
    return {"y": y, "y*y": y * y, "2*y+1": 2 * y + 1}


@pytest.fixture
def bivariate_05(bivariate):
    return bivariate(0.5)


@pytest.mark.parametrize("space_name, axis", [
    ("gaussian_sum_grid", "x"), ("gaussian_sum_grid", "y"),
    ("bivariate_05", "z"), ("bivariate_05", "y"),
])
def test_one_axis_full_mean_equals_the_full_grid_trapezoid(space_name, axis, request,
                                                           monkeypatch):
    space = request.getfixturevalue(space_name)
    calls = _count_grid_products(monkeypatch)
    for name, rv in _one_axis_variables(axis).items():
        got = cp.expectation(space, rv).value
        ref, scale = _full_grid_mean(space, rv.fn)
        # relative to E|X|: E[y] itself is zero up to roundoff
        assert abs(got - ref) <= 1e-13 * scale, name
    assert calls == []


@pytest.mark.parametrize("c", [0.0, 1e6, 1e8, 1e9])
def test_variance_holds_at_any_offset(c, bivariate_05):
    # the variance is centred: a raw E[X^2] - E[X]^2 cancels at a large offset c
    y = cp.coordinate("y")
    sampler = cp.Sampler("standard-normal-pair", seed=0, budget=200_000)
    assert spaces.std(sampler, y + c) == pytest.approx(sampler.columns()["y"].std(), rel=1e-9)
    # the grid's mass is 1 + defect, so its mean of y + c is off by c * defect,
    # whose square the centred variance keeps
    shift = c * bivariate_05.meta["normalization_defect"]
    assert spaces.variance(bivariate_05, y + c) == pytest.approx(
        spaces.variance(bivariate_05, y) + shift * shift, rel=1e-9)


def test_one_axis_full_mean_on_a_1d_grid_is_bit_identical(normal_grid):
    nodes, pitch = normal_grid.grid[0], normal_grid.pitches[0]
    for name, rv in _one_axis_variables("y").items():
        ref = float(_plain_trapezoid(rv.fn({"y": nodes}) * normal_grid.values, pitch))
        assert cp.expectation(normal_grid, rv).value == ref, name


def test_a_two_axis_variable_takes_the_full_path(gaussian_sum_grid, monkeypatch):
    x, y = cp.coordinate("x"), cp.coordinate("y")
    variables = [x + y, x * y]
    calls = _count_grid_products(monkeypatch)
    for rv in variables:
        got = cp.expectation(gaussian_sum_grid, rv).value
        ref, scale = _full_grid_mean(gaussian_sum_grid, rv.fn)
        assert abs(got - ref) <= 1e-13 * scale
    assert calls == variables


@pytest.mark.parametrize("space_name", ["normal_grid", "gaussian_sum_grid"])
def test_a_one_axis_variable_with_a_non_finite_node_is_not_integrable(space_name, request):
    space = request.getfixturevalue(space_name)
    y = cp.coordinate("y")
    for rv in (y * math.inf, -(y * math.nan) + 1.0):
        for _ in range(2):
            with pytest.raises(NonIntegrable, match="not finite on the grid"):
                cp.expectation(space, rv)


# ---------------------------------------------------------------------------
# Grid marginals are one contraction of f with the trapezoid weights of the
# other axes; a variable along one axis folds its node values into them and
# builds no product over the grid.  The reference multiplies x by f on the
# whole grid and applies the trapezoid rule axis by axis, in plain numpy.


def _three_axis_grid():
    """A correlated density over (x, y, w) on a 21x31x17 grid, normalised by
    the trapezoid rule."""
    ranges = ((-2.0, 3.0), (-2.5, 4.0), (-1.0, 2.0))
    grid = [np.linspace(lo, hi, n) for (lo, hi), n in zip(ranges, (21, 31, 17))]
    gx, gy, gw = np.meshgrid(*grid, indexing="ij")
    f = np.exp(-0.5 * (gx - 0.5) ** 2 - 0.5 * (gy - gx) ** 2 - (gw - 0.3 * gy) ** 2)
    total = f
    for nodes in reversed(grid):
        total = _plain_trapezoid(total, nodes[1] - nodes[0])
    return spaces.DensityGrid(("x", "y", "w"), ranges, f / total)


def _reference_marginal(space, fn, k):
    """(marginal of x*f along axis k, the same of |x|*f) by the whole-grid
    product and the trapezoid rule over every other axis."""
    frame = dict(zip(space.axes, np.meshgrid(*space.grid, indexing="ij")))
    x = np.broadcast_to(np.asarray(fn(frame), dtype=float), space.values.shape)
    others = space.pitches[:k] + space.pitches[k + 1:]
    out = []
    for g in (x * space.values, np.abs(x) * space.values):
        g = np.moveaxis(g, k, 0)
        for pitch in reversed(others):
            g = _plain_trapezoid(g, pitch)
        out.append(g)
    return out


@pytest.mark.parametrize("make", [_offset_gaussian_sum_grid, _three_axis_grid],
                         ids=["offset-2d", "3d"])
def test_grid_marginal_is_the_trapezoid_of_the_whole_grid_product(make, monkeypatch):
    space = make()
    x, y = cp.coordinate("x"), cp.coordinate("y")
    xy = x * y
    calls = _count_grid_products(monkeypatch)
    for k, axis in enumerate(space.axes):
        other = cp.coordinate(space.axes[1 - k] if k < 2 else "x")
        variables = {"mass": None, "other axis": other, "own axis": cp.coordinate(axis),
                     "2*y+1": 2 * y + 1, "x*y": xy}
        mass = _reference_marginal(space, lambda c: 1.0, k)
        for name, rv in variables.items():
            pair, cum = spaces._grid_marginal(space, rv, k)
            want = _reference_marginal(space, (lambda c: 1.0) if rv is None else rv.fn, k)
            assert pair.shape == cum.shape == space.grid[k].shape + (2,)
            # column 0 the marginal of f, column 1 that of x*f
            for c, (ref, scale) in enumerate((mass, want)):
                assert np.all(np.abs(pair[:, c] - ref) <= 1e-13 * scale), (axis, name, c)
                assert np.array_equal(cum[:, c],
                                      cp.quadrature.cumulative(pair[:, c], space.pitches[k]))
    # only the two-axis variable builds a product, once per axis
    assert calls == [xy] * len(space.axes)


def test_a_window_of_a_non_finite_one_axis_variable_is_not_integrable(bivariate_05,
                                                                       monkeypatch):
    z, y = cp.coordinate("z"), cp.coordinate("y")
    rv = z * math.inf
    window = cp.Event.window(y, 0.0, 0.5)
    calls = _count_grid_products(monkeypatch)
    for _ in range(2):  # nothing is cached on failure, so every call checks
        with pytest.raises(NonIntegrable, match="not finite on the grid"):
            bivariate_05.moment(rv, window)
        with pytest.raises(NonIntegrable, match="not finite on the grid"):
            cp.cond_expectation_event(bivariate_05, rv, window)
    assert ("marg", id(rv), 1) not in bivariate_05._cache
    assert calls == []


def test_a_grid_marginal_has_the_same_bits_at_any_array_address():
    # the second density sits one float past an aligned buffer's start
    space = _offset_gaussian_sum_grid()
    buf = np.empty(space.values.size + 1)
    shifted = buf[1:].reshape(space.values.shape)
    shifted[...] = space.values
    twins = [_offset_gaussian_sum_grid(), cp.DensityGrid2D(space.axes, space.ranges, shifted)]
    assert np.shares_memory(twins[1].values, buf)
    x, y = cp.coordinate("x"), cp.coordinate("y")
    for rv in (None, x, 2 * y + 1, x * y):
        for k in range(2):
            bits = spaces._grid_marginal(space, rv, k)[0].tobytes()
            for twin in twins:
                assert spaces._grid_marginal(twin, rv, k)[0].tobytes() == bits
