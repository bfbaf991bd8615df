import math
import re
import threading
import weakref
from dataclasses import astuple

import numpy as np
import pytest

import condpoint as cp
from condpoint import quadrature as quad
from condpoint.config import load_space
from condpoint.errors import InsufficientTrace, NonApproachablePoint, NonIntegrable
from condpoint.window import CONVERGED, N_MIN, STARVED, WindowStep, shrink_trace

import oracles
from conftest import SCENARIO_DIR, full_stream_cond


X_COORD = cp.coordinate("x")
Y_COORD = cp.coordinate("y")
Z_COORD = cp.coordinate("z")


# Frozen from the adaptive-quadrature oracle, gaussian_sum_window_mean(2.0, eps)
ORACLE_WINDOW_AT_2 = {0.5: 0.9596706339638351, 0.25: 0.9896693079068741,
                      0.125: 0.9974012455953017}


def test_gaussian_posterior_window_grid(gaussian_sum_grid):
    for y in (-2.0, 0.0, 1.0, 2.0):
        tr = cp.window_estimate(gaussian_sum_grid, X_COORD, Y_COORD, y)
        assert tr.verdict == CONVERGED
        assert abs(tr.value - oracles.posterior_mean(y)) <= 1e-4


def test_gaussian_window_steps_match_finite_eps_oracle(gaussian_sum_grid):
    sch = cp.Schedule(eps0=0.5, depth=3)
    tr = cp.window_estimate(gaussian_sum_grid, X_COORD, Y_COORD, 2.0,
                            schedule=sch, tol=1e-12, stop_early=False)
    for step in tr.steps:
        assert abs(step.estimate - ORACLE_WINDOW_AT_2[step.eps]) <= 5e-5


def test_gaussian_posterior_window_sampler(gaussian_sum_sampler):
    for y in (-2.0, -1.0, 0.0, 1.0, 2.0):
        tr = cp.window_estimate(gaussian_sum_sampler, X_COORD, Y_COORD, y)
        assert tr.verdict == CONVERGED
        assert tr.bound == "statistical"
        assert abs(tr.value - oracles.posterior_mean(y)) <= 3.0 * tr.steps[-1].se


def test_independent_variable_gives_plain_mean(uniform_square):
    tr = cp.window_estimate(uniform_square, Z_COORD, Y_COORD, 0.4)
    assert tr.verdict == CONVERGED
    assert abs(tr.value - 0.5) <= 1e-12


def test_dice_window_isolates_atom(dice):
    X2 = cp.RandomVariable("X2", lambda w: w * w)
    Y = cp.RandomVariable("Y", lambda w: w)
    tr = cp.window_estimate(dice, X2, Y, 3.0,
                            schedule=cp.Schedule(eps0=1.7, depth=8), stop_early=False)
    for step in tr.steps:
        if step.eps < 1.0:
            assert step.estimate == 9.0
    assert tr.value == 9.0 and tr.verdict == CONVERGED


def test_window_agrees_with_atom_conditioning(dice):
    X2 = cp.RandomVariable("X2", lambda w: w * w)
    Y = cp.RandomVariable("Y", lambda w: w)
    tr = cp.window_estimate(dice, X2, Y, 3.0, schedule=cp.Schedule(eps0=0.5, depth=3))
    atom_value = cp.cond_expectation_event(dice, X2, cp.Event.from_atoms({3})).value
    assert tr.value == atom_value


def test_averaging_identity_every_step(dice):
    X2 = cp.RandomVariable("X2", lambda w: w * w)
    Y = cp.RandomVariable("Y", lambda w: w)
    sch = cp.Schedule(eps0=2.4, depth=6)
    tr = cp.window_estimate(dice, X2, Y, 3.0, schedule=sch, stop_early=False)
    for step in tr.steps:
        w = cp.Event.window(Y, 3.0, step.eps)
        num = cp.indicator_moment(dice, X2, w).value
        den = cp.probability(dice, w).value
        assert step.estimate == num / den
        assert step.prob == den


def test_evaluate_on_grid_bivariate(bivariate):
    joint = bivariate(0.5)
    table = cp.evaluate_on_grid(joint, Z_COORD, Y_COORD, [-1.0, 0.0, 1.0])
    assert np.abs(table.values - np.array([-0.5, 0.0, 0.5])).max() <= 1e-4
    assert all(v == CONVERGED for v in table.verdicts)
    assert table.flags == []


def test_single_point_grid_equals_window_estimate(gaussian_sum_grid):
    table = cp.evaluate_on_grid(gaussian_sum_grid, X_COORD, Y_COORD, [1.0])
    direct = cp.window_estimate(gaussian_sum_grid, X_COORD, Y_COORD, 1.0)
    assert table.traces[0].value == direct.value
    assert len(table.traces) == 1


def test_single_point_grid_on_sampler_uses_substream(gaussian_sum_sampler):
    table = cp.evaluate_on_grid(gaussian_sum_sampler, X_COORD, Y_COORD, [1.0])
    direct = cp.window_estimate(gaussian_sum_sampler.substream(0), X_COORD, Y_COORD, 1.0)
    assert table.traces[0].value == direct.value


def test_pointwise_evaluate_is_deterministic(gaussian_sum_sampler):
    # sampler rows are drawn once and frozen, so a repeated window at one y
    # reproduces the trace
    a = cp.window_estimate(gaussian_sum_sampler, X_COORD, Y_COORD, 0.3)
    b = cp.window_estimate(gaussian_sum_sampler, X_COORD, Y_COORD, 0.3)
    assert a.value == b.value
    assert [s.estimate for s in a.steps] == [s.estimate for s in b.steps]


def test_window_table_does_not_keep_its_space_alive():
    space = load_space(SCENARIO_DIR / "spaces" / "bivariate-05.json").space
    table = cp.evaluate_on_grid(space, Z_COORD, Y_COORD, [-1.0, 0.0, 1.0])
    ref = weakref.ref(space)
    del space
    assert ref() is None
    assert all(v == CONVERGED for v in table.verdicts)


def test_uniform_interior_constant(uniform_square):
    table = cp.evaluate_on_grid(uniform_square, Z_COORD, Y_COORD,
                                np.linspace(0.2, 0.8, 7))
    assert np.abs(table.values - 0.5).max() <= 1e-12


def test_forced_one_sided_family(normal_grid):
    # the optional window families: upper/lower one-sided neighborhoods
    up = cp.window_estimate(normal_grid, Y_COORD * Y_COORD, Y_COORD, 0.0,
                            family="upper", schedule=cp.Schedule(eps0=0.5, depth=10))
    lo = cp.window_estimate(normal_grid, Y_COORD * Y_COORD, Y_COORD, 0.0,
                            family="lower", schedule=cp.Schedule(eps0=0.5, depth=10))
    assert up.one_sided == "upper" and lo.one_sided == "lower"
    # both shrink onto the same target value as the symmetric family
    sym = cp.window_estimate(normal_grid, Y_COORD * Y_COORD, Y_COORD, 0.0)
    assert abs(up.value - sym.value) <= 1e-3 and abs(lo.value - sym.value) <= 1e-3
    with pytest.raises(ValueError):
        cp.window_estimate(normal_grid, Y_COORD, Y_COORD, 0.0, family="ball")


def test_boundary_windows_are_one_sided(uniform_square):
    lo = cp.window_estimate(uniform_square, Z_COORD, Y_COORD, 0.0,
                            schedule=cp.Schedule(eps0=0.2, depth=5))
    hi = cp.window_estimate(uniform_square, Z_COORD, Y_COORD, 1.0,
                            schedule=cp.Schedule(eps0=0.2, depth=5))
    assert lo.one_sided == "upper" and hi.one_sided == "lower"
    assert abs(lo.value - 0.5) <= 1e-12


def test_non_approachable_point(normal_grid):
    with pytest.raises(NonApproachablePoint):
        cp.window_estimate(normal_grid, Y_COORD * Y_COORD, Y_COORD, 25.0)


def test_grid_window_null_after_adequate_steps_raises(gaussian_sum_grid):
    # on a grid a null window raises wherever it comes, not only first: at
    # y = 10 the windows of half-width 1 down to 0.125 hold mass, 0.0625 not
    sch = cp.Schedule(eps0=1.0, depth=4)
    tr = cp.window_estimate(gaussian_sum_grid, X_COORD, Y_COORD, 10.0,
                            schedule=sch, tol=1e-12, stop_early=False)
    assert [s.eps for s in tr.steps] == [1.0, 0.5, 0.25, 0.125]
    assert all(s.prob >= cp.spaces.PROB_FLOOR for s in tr.steps)
    with pytest.raises(NonApproachablePoint,
                       match=re.escape("window '{|y-10.0|<0.0625}' at target 10.0 has mass 4.9")):
        cp.window_estimate(gaussian_sum_grid, X_COORD, Y_COORD, 10.0,
                           schedule=cp.Schedule(eps0=1.0), tol=1e-12)


def test_outside_support_mixture():
    from condpoint.config import build_space
    space = build_space({
        "kind": "grid1d", "axis": "y", "nodes": 2001, "range": [-9.0, 9.0],
        "density": {"family": "mixture",
                    "components": [{"weight": 0.5, "mean": -5.0, "var": 0.1},
                                   {"weight": 0.5, "mean": 5.0, "var": 0.1}]}})
    with pytest.raises(NonApproachablePoint):
        cp.window_estimate(space, Y_COORD * Y_COORD, Y_COORD, 0.0,
                           schedule=cp.Schedule(eps0=0.5, depth=12))


def test_evaluate_on_grid_flags_a_node_outside_the_support():
    from condpoint.config import build_space
    space = build_space({
        "kind": "grid1d", "axis": "y", "nodes": 2001, "range": [-9.0, 9.0],
        "density": {"family": "mixture",
                    "components": [{"weight": 0.5, "mean": -5.0, "var": 0.1},
                                   {"weight": 0.5, "mean": 5.0, "var": 0.1}]}})
    pw = cp.evaluate_on_grid(space, Y_COORD * Y_COORD, Y_COORD, [-5.0, 0.0, 5.0],
                             schedule=cp.Schedule(eps0=0.5, depth=12))
    assert pw.verdicts == [CONVERGED, "NonApproachablePoint", CONVERGED]
    assert [y for y, _ in pw.flags] == [0.0]
    assert math.isnan(pw.values[1])
    values = pw.to_json_dict()["values"]
    assert values[1] is None and values[0] == pytest.approx(25.0, abs=1e-4)


def test_grid_window_requires_coordinate(gaussian_sum_grid):
    derived = X_COORD + Y_COORD
    with pytest.raises(ValueError):
        cp.window_estimate(gaussian_sum_grid, X_COORD, derived, 0.0)


def test_sampler_starvation():
    def space(budget):
        return cp.Sampler("gaussian-sum", {"var_x": 1.0, "var_noise": 1.0},
                          seed=5, budget=budget)
    tr = cp.window_estimate(space(1000), X_COORD, Y_COORD, 2.0, tol=1e-15)
    assert tr.verdict == STARVED
    assert all(s.n >= N_MIN for s in tr.steps)
    with pytest.raises(NonApproachablePoint, match=f"below n_min={N_MIN}$"):
        cp.window_estimate(space(200), X_COORD, Y_COORD, 2.0)  # first window already starved


def test_sampler_trace_determinism(gaussian_sum_sampler):
    a = cp.window_estimate(gaussian_sum_sampler, X_COORD, Y_COORD, 1.0)
    b = cp.window_estimate(gaussian_sum_sampler, X_COORD, Y_COORD, 1.0)
    assert a.value == b.value
    assert [s.estimate for s in a.steps] == [s.estimate for s in b.steps]
    fresh = cp.Sampler("gaussian-sum", {"var_x": 1.0, "var_noise": 1.0},
                       seed=20260811, budget=10**6)
    c = cp.window_estimate(fresh, X_COORD, Y_COORD, 1.0)
    assert c.value == a.value


def test_sampler_window_traces_stream_and_read_no_columns(monkeypatch):
    # std and every window come from streamed passes: neither the full
    # stream nor a whole column is drawn, and no stored answer stays behind
    def full_stream(*args, **kwargs):
        raise AssertionError("a sampler window trace read the full stream")

    monkeypatch.setattr(cp.Sampler, "columns", full_stream)
    space = cp.Sampler("gaussian-sum", seed=20260811, budget=200_000)
    traces = [cp.window_estimate(space, X_COORD, Y_COORD, 1.0),
              cp.window_estimate(space, X_COORD, Y_COORD, -0.5, stop_early=False,
                                 schedule=cp.Schedule(eps0=0.5, depth=6)),
              cp.window_estimate(space, X_COORD, Y_COORD, 0.5, family="upper")]
    table = cp.evaluate_on_grid(space, X_COORD, Y_COORD, [-1.0, 0.0, 1.0])
    assert table.verdicts == [CONVERGED] * 3
    assert "columns" not in space._cache
    assert not [key for key in space._cache if isinstance(key, tuple) and key[0] == "cond"]
    monkeypatch.undo()
    # each step is the full stream's answer for its window, up to summation order
    full = cp.Sampler("gaussian-sum", seed=20260811, budget=200_000)
    events = {"symmetric": cp.Event.window,
              "upper": lambda rv, y, eps: cp.Event.interval(rv, y, y + eps)}
    for tr, family in zip(traces, ("symmetric", "symmetric", "upper")):
        for step in tr.steps:
            want = full_stream_cond(full, X_COORD, events[family](Y_COORD, tr.target, step.eps))
            assert (step.n, step.prob) == (want.n, want.prob)
            assert math.isclose(step.estimate, want.value, rel_tol=1e-13)
            assert math.isclose(step.se, want.se, rel_tol=1e-13)


def test_sampler_window_passes_call_no_public_function_off_the_calling_thread(monkeypatch):
    # both passes split their blocks over worker threads, which call no
    # public method or function, so a tracer that wraps them sees one thread
    main, seen, split = threading.current_thread(), [], []
    public = [(cp.Sampler, ("columns", "substream", "values_of", "indicator", "moment", "cond",
                            "cond_each")),
              (cp.spaces, ("probability", "expectation", "cond_expectation_event", "variance",
                           "std")),
              (cp.window, ("std", "cond_expectation_event", "shrink_trace"))]
    for owner, names in public:
        for name in names:
            def spy(*args, _real=getattr(owner, name), **kwargs):
                seen.append(threading.current_thread())
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
    draw = cp.spaces.DRAW_FAMILIES["gaussian-sum"]
    monkeypatch.setitem(cp.spaces.DRAW_FAMILIES, "gaussian-sum",
                        lambda rng, out, params: split.append(threading.current_thread())
                        or draw(rng, out, params))
    space = cp.Sampler("gaussian-sum", seed=20260811, budget=300_000)
    assert cp.window_estimate(space, X_COORD, Y_COORD, 0.5).verdict == CONVERGED
    assert seen and all(thread is main for thread in seen)
    # the std pass and the window pass each draw every block once, on workers
    per_pass = -(-300_000 // cp.spaces.DRAW_BLOCK)
    assert len(split) == 2 * per_pass and main not in split


def test_convergence_order_smooth(gaussian_sum_grid):
    tr = cp.window_estimate(gaussian_sum_grid, X_COORD, Y_COORD, 1.0,
                            schedule=cp.Schedule(eps0=0.7, depth=12),
                            tol=1e-12, stop_early=False)
    order = cp.convergence_order(tr)
    assert 1.8 <= order <= 2.3


def test_convergence_order_constant_sentinel(uniform_square):
    tr = cp.window_estimate(uniform_square, Z_COORD, Y_COORD, 0.5,
                            schedule=cp.Schedule(eps0=0.4, depth=8), stop_early=False)
    assert cp.convergence_order(tr) == math.inf


def test_convergence_order_kink(normal_grid):
    kink = cp.RandomVariable("absY", lambda f: abs(f["y"]))
    tr = cp.window_estimate(normal_grid, kink, Y_COORD, 0.0,
                            schedule=cp.Schedule(eps0=1.0, depth=12),
                            tol=1e-12, stop_early=False)
    order = cp.convergence_order(tr)
    assert 0.8 <= order <= 1.2


def test_convergence_order_sampler_trace_inside_its_noise():
    from condpoint.pathology import ratio_normal_instance
    inst = ratio_normal_instance(budget=2_000_000)
    tr = cp.window_estimate(inst["space"], inst["X"], Y_COORD, 0.0,
                            schedule=cp.Schedule(eps0=0.8, depth=6), stop_early=False)
    # every step lies within three standard errors of the last one
    with pytest.raises(InsufficientTrace):
        cp.convergence_order(tr)


def test_convergence_order_needs_three_steps(dice):
    Y = cp.RandomVariable("Y", lambda w: w)
    tr = cp.window_estimate(dice, Y, Y, 3.0, schedule=cp.Schedule(eps0=0.5, depth=2),
                            stop_early=False)
    with pytest.raises(InsufficientTrace):
        cp.convergence_order(tr)


def _trace(estimates, epsilons, resolution=None):
    steps = [WindowStep(eps, e, 0.0, None, eps) for eps, e in zip(epsilons, estimates)]
    return cp.WindowTrace(0.0, steps, estimates[-1], False, "Plateaued", None, 1e-6,
                          resolution=resolution)


def test_convergence_order_rejects_non_finite_estimates():
    tr = _trace([1.0, math.nan, 0.5, 0.25], [0.8, 0.4, 0.2, 0.1])
    with pytest.raises(InsufficientTrace, match="^non-finite estimates in trace$"):
        cp.convergence_order(tr)


def test_convergence_order_needs_three_usable_steps():
    # steps inside 4 pitches are not usable, yet off the roundoff floor
    tr = _trace([1.64, 1.16, 1.04, 1.01, 1.0], [0.8, 0.4, 0.2, 0.1, 0.05], resolution=0.1)
    with pytest.raises(InsufficientTrace, match="^fewer than 3 usable steps to fit an order$"):
        cp.convergence_order(tr)


def test_a_constant_conditioning_variable_on_atoms_starts_at_eps_1(dice):
    # std(Y) is 0, so the default schedule starts at eps0 = 1 and every
    # window holds every atom
    X, Y = cp.RandomVariable("X", lambda w: w), cp.RandomVariable("C", lambda w: 5.0)
    assert cp.spaces.std(dice, Y) == 0.0
    tr = cp.window_estimate(dice, X, Y, 5.0)
    assert tr.steps[0].eps == 1.0
    assert tr.verdict == CONVERGED and tr.value == 3.5
    assert all(s.prob == 1.0 and s.estimate == 3.5 for s in tr.steps)


def test_richardson_extrapolation_improves_limit(gaussian_sum_grid):
    sch = cp.Schedule(eps0=0.8, depth=7)
    tr = cp.window_estimate(gaussian_sum_grid, X_COORD, Y_COORD, 2.0,
                            schedule=sch, tol=1e-12, stop_early=False)
    assert tr.extrapolated
    raw_err = abs(tr.steps[-1].estimate - 1.0)
    ext_err = abs(tr.value - 1.0)
    assert ext_err < raw_err


def test_tower_property_over_conditioning_law(gaussian_sum_grid):
    y_grid = np.linspace(-8.0, 8.0, 81)
    table = cp.evaluate_on_grid(gaussian_sum_grid, X_COORD, Y_COORD, y_grid)
    law = cp.pushforward(gaussian_sum_grid, Y_COORD)
    fy = np.interp(y_grid, law.grid[0], law.values)
    h = y_grid[1] - y_grid[0]
    integral = float(np.trapezoid(table.values * fy, dx=h))
    assert abs(integral - cp.expectation(gaussian_sum_grid, X_COORD).value) <= 5e-3


def test_trace_schedule_invariants(gaussian_sum_grid):
    tr = cp.window_estimate(gaussian_sum_grid, X_COORD, Y_COORD, 0.5)
    eps = [s.eps for s in tr.steps]
    assert all(e > 0 for e in eps)
    assert all(b < a for a, b in zip(eps[:-1], eps[1:]))
    if tr.verdict == CONVERGED:
        assert abs(tr.steps[-1].estimate - tr.steps[-2].estimate) <= tr.tol


def test_shrink_trace_rejects_bad_schedule(dice):
    X2 = cp.RandomVariable("X2", lambda w: w * w)
    Y = cp.RandomVariable("Y", lambda w: w)
    pairs = [(0.5, cp.Event.window(Y, 3.0, 0.5)), (0.7, cp.Event.window(Y, 3.0, 0.7))]
    with pytest.raises(ValueError):
        shrink_trace(dice, X2, pairs)


def test_trace_json_shape(gaussian_sum_sampler):
    tr = cp.window_estimate(gaussian_sum_sampler, X_COORD, Y_COORD, 0.5)
    doc = tr.to_json_dict()
    assert doc["kind"] == "window_trace"
    assert doc["verdict"] == tr.verdict
    assert len(doc["steps"]) == len(tr.steps)
    assert {"eps", "estimate", "se", "n", "prob"} <= set(doc["steps"][0])


def test_sampler_starves_on_an_empty_window_after_some_steps():
    # uniform rows in [0, 1): the third window, (-0.5, 0), holds no row
    space = cp.Sampler("uniform-square", seed=1, budget=10000)
    tr = cp.window_estimate(space, Y_COORD, Y_COORD, -0.25, schedule=cp.Schedule(eps0=1.0))
    assert tr.verdict == STARVED and tr.bound is None and tr.tol == 1e-6
    # the first two windows, (-1.25, 0.75) and (-0.75, 0.25), hold the rows
    # below their upper ends
    y = cp.Sampler("uniform-square", seed=1, budget=10000).columns()["y"]
    assert [s.n for s in tr.steps] == [(y < 0.75).sum(), (y < 0.25).sum()]
    assert 0 < tr.steps[-1].n < tr.steps[0].n < 10000


# The window of each family around y at radius eps, built one event at a time.
FAMILY_EVENTS = {
    "symmetric": lambda Y, y, eps: cp.Event.window(Y, y, eps),
    "upper": lambda Y, y, eps: cp.Event.interval(Y, y, y + eps),
    "lower": lambda Y, y, eps: cp.Event.interval(Y, y - eps, y),
}


def _grid_cases(normal_grid, bivariate):
    return [("1d", normal_grid, Y_COORD * Y_COORD, 0.3),
            ("2d", bivariate(0.5), Z_COORD, -0.7)]


@pytest.mark.parametrize("family", sorted(FAMILY_EVENTS))
def test_grid_trace_steps_equal_one_event_at_a_time(normal_grid, bivariate, family):
    # the whole schedule in one array pass gives every step's bits of
    # conditioning on that step's window event alone
    for label, space, X, y in _grid_cases(normal_grid, bivariate):
        tr = cp.window_estimate(space, X, Y_COORD, y, family=family, stop_early=False)
        assert len(tr.steps) == 20, label
        for step in tr.steps:
            r = cp.cond_expectation_event(space, X, FAMILY_EVENTS[family](Y_COORD, y, step.eps))
            assert (repr(step.estimate), repr(step.prob)) == (repr(r.value), repr(r.prob)), label
            assert step.se == 0.0 and step.n is None


@pytest.mark.parametrize("family", sorted(FAMILY_EVENTS))
def test_grid_trace_stopped_early_is_a_prefix_of_the_full_schedule(normal_grid, bivariate,
                                                                   family):
    for label, space, X, y in _grid_cases(normal_grid, bivariate):
        early = cp.window_estimate(space, X, Y_COORD, y, family=family, tol=1e-4)
        full = cp.window_estimate(space, X, Y_COORD, y, family=family, tol=1e-4,
                                  stop_early=False)
        assert 2 <= len(early.steps) < len(full.steps), label
        assert ([repr(astuple(s)) for s in early.steps]
                == [repr(astuple(s)) for s in full.steps[:len(early.steps)]]), label


def _count_interval_events(monkeypatch) -> list:
    built = []
    interval = cp.Event.interval.__func__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return interval(cls, *args, **kwargs)

    monkeypatch.setattr(cp.Event, "interval", classmethod(counted))
    return built


def test_grid_trace_builds_no_event_per_step(monkeypatch, bivariate):
    space = bivariate(0.5)
    cp.window_estimate(space, Z_COORD, Y_COORD, 0.2)  # std of y, memoised
    built = _count_interval_events(monkeypatch)
    tr = cp.window_estimate(space, Z_COORD, Y_COORD, 0.2, stop_early=False)
    assert len(tr.steps) == 20 and built == []


@pytest.mark.parametrize("y, family, k", [(-8.0, "upper", 1), (7.5, "symmetric", 2)])
def test_degenerate_grid_window_is_named_in_the_error(monkeypatch, bivariate, y, family, k):
    # at the ends of the y range window k is the first whose mass is below
    # the floor; the error names it, the one event the trace builds
    space = bivariate(0.5)
    eps = cp.spaces.std(space, Y_COORD) * 0.5**k
    name = FAMILY_EVENTS[family](Y_COORD, y, eps).name
    built = _count_interval_events(monkeypatch)
    with pytest.raises(NonApproachablePoint, match=re.escape(f"window {name!r} at target {y!r}")):
        cp.window_estimate(space, Z_COORD, Y_COORD, y)
    assert len(built) == 1


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_non_finite_target_is_not_approachable(dice, normal_grid, y):
    spaces = [(dice, cp.RandomVariable("X", lambda w: w), cp.RandomVariable("Y", lambda w: w)),
              (normal_grid, Y_COORD * Y_COORD, Y_COORD),
              (cp.Sampler("gaussian-sum", seed=1, budget=1000), X_COORD, Y_COORD)]
    for space, X, Y in spaces:
        with pytest.raises(NonApproachablePoint, match="not a finite number"):
            cp.window_estimate(space, X, Y, y)
    # rejected before any window: the sampler drew no row
    assert "columns" not in spaces[2][0]._cache


def test_evaluate_on_grid_flags_a_non_finite_node(normal_grid):
    pw = cp.evaluate_on_grid(normal_grid, Y_COORD * Y_COORD, Y_COORD, [0.5, math.nan])
    assert pw.verdicts == [CONVERGED, "NonApproachablePoint"]
    assert len(pw.flags) == 1 and math.isnan(pw.flags[0][0])
    assert pw.to_json_dict()["values"][1] is None


def _count_kernel_calls(monkeypatch) -> list:
    calls = []
    real = quad.clip_integral
    monkeypatch.setattr(quad, "clip_integral",
                        lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("stop_early", [True, False])
def test_grid_trace_clips_its_masses_and_moments_in_one_kernel_call(monkeypatch, bivariate,
                                                                  stop_early):
    space = bivariate(0.5)
    calls = _count_kernel_calls(monkeypatch)
    tr = cp.window_estimate(space, Z_COORD, Y_COORD, 0.35, stop_early=stop_early)
    assert len(tr.steps) >= 3 and len(calls) == 1


def test_degenerate_first_window_is_named_before_a_variable_with_no_marginal():
    # f vanishes for y < 0: the first window at y = -0.5 has no mass, so the
    # trace raises its NonApproachablePoint, not 1/x's error, which a
    # trace with mass raises at its first step
    nodes = np.linspace(-1.0, 1.0, 41)
    f = np.broadcast_to(np.where(nodes > 0.0, 1.0, 0.0), (41, 41))
    f = f / np.trapezoid(np.trapezoid(f, nodes, axis=1), nodes)
    space = cp.DensityGrid2D(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)), f, quad_tol=1e-12)
    inv = cp.RandomVariable("1/x", lambda frame: 1.0 / frame["x"])
    schedule = cp.Schedule(eps0=0.2)
    with pytest.raises(NonApproachablePoint, match="has mass 0.0"):
        cp.window_estimate(space, inv, Y_COORD, -0.5, schedule=schedule)
    with pytest.raises(NonIntegrable, match="not finite on the grid"):
        cp.window_estimate(space, inv, Y_COORD, 0.5, schedule=schedule)
