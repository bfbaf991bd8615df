"""Space caches stay bounded and correct under repeated queries.

Entry counts, not resident memory, are asserted, so the checks do not
depend on the machine.
"""

import gc
import math
import weakref

import numpy as np
import pytest

import condpoint as cp
from condpoint import window
from condpoint.spaces import std
from condpoint.config import build_space
from condpoint.errors import NonIntegrable


def _small_joint():
    return build_space({"kind": "grid2d", "axes": ["x", "y"],
                        "density": {"family": "gaussian-sum", "var_x": 1.0, "var_noise": 1.0},
                        "nodes": [201, 201]})


def _repeat_windows(space, calls):
    x, y = cp.coordinate("x"), cp.coordinate("y")
    sizes = []
    for i in range(calls):
        cp.window_estimate(space, x, y, -1.0 + 2.0 * i / calls)
        sizes.append(len(space._cache))
    return sizes


def test_grid_cache_stops_growing_after_first_window():
    sizes = _repeat_windows(_small_joint(), 50)
    assert sizes == [sizes[0]] * 50


def test_sampler_cache_stops_growing_after_first_window():
    space = cp.Sampler("gaussian-sum", {"var_x": 1.0, "var_noise": 1.0},
                       seed=20260811, budget=10**5)
    sizes = _repeat_windows(space, 50)
    assert sizes == [sizes[0]] * 50


def test_given_eps0_skips_std(monkeypatch):
    calls = []
    real_std = window.std

    def counting_std(space, rv):
        calls.append(rv.name)
        return real_std(space, rv)

    monkeypatch.setattr(window, "std", counting_std)
    space = _small_joint()
    x, y = cp.coordinate("x"), cp.coordinate("y")
    trace = cp.window_estimate(space, x, y, 1.0, schedule=cp.Schedule(eps0=0.5))
    assert calls == []
    assert trace.steps[0].eps == 0.5
    cp.window_estimate(space, x, y, 1.0)
    assert calls == ["y"]


@pytest.mark.parametrize("make", [
    lambda: _small_joint(),
    lambda: build_space({"kind": "grid1d", "axis": "y", "nodes": 201,
                         "density": {"family": "normal"}}),
])
def test_infinite_node_raises_on_every_call(make):
    space = make()
    inv = cp.RandomVariable("1/y", lambda f: 1.0 / f["y"])
    assert np.isinf(space.values_of(inv)).any()
    window_event = cp.Event.window(cp.coordinate("y"), 0.5, 0.25)
    for _ in range(2):
        with pytest.raises(NonIntegrable):
            space.moment(inv, None)
        with pytest.raises(NonIntegrable):
            space.moment(inv, window_event)


def test_finiteness_scan_runs_once_per_variable(monkeypatch):
    space = _small_joint()
    x = cp.coordinate("x")
    event = cp.Event.window(cp.coordinate("y"), 0.5, 0.25)
    first = space.moment(x, event).value
    scans = []
    real_isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: scans.append(1) or real_isfinite(a))
    again = [space.moment(x, event).value for _ in range(5)]
    assert scans == []
    assert again == [first] * 5


@pytest.mark.parametrize("make", [
    lambda: _small_joint(),
    lambda: cp.Sampler("gaussian-sum", {"var_x": 1.0, "var_noise": 1.0},
                       seed=20260811, budget=10**5),
    lambda: cp.DiscreteAtoms(tuple(range(1, 7)), np.full(6, 1.0 / 6.0)),
])
def test_memoised_std_equals_direct_formula(make):
    space = make()
    Y = cp.coordinate("y") if not isinstance(space, cp.DiscreteAtoms) \
        else cp.RandomVariable("X", lambda w: w)
    first = std(space, Y)
    assert first == math.sqrt(cp.variance(space, Y))
    assert std(space, Y) == first


def test_cached_arrays_are_read_only():
    space = _small_joint()
    x = cp.coordinate("x")
    space.moment(x, cp.Event.window(cp.coordinate("y"), 0.5, 0.25))
    space.moment(x, cp.Event.window(x, 0.5, 0.25))
    # the density itself is the caller's array, not a cache entry
    arrays = [a for entry in space._cache.values() if isinstance(entry, tuple)
              for a in entry if isinstance(a, np.ndarray) and a is not space.values]
    assert len(arrays) >= 4  # values, and a marginal and its cumulative sum per axis
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_grid_density_is_a_read_only_view_of_the_callers_array():
    # a write through the space would leave every cached marginal stale
    f = np.ones((11, 21))
    space = cp.DensityGrid2D(("x", "y"), ((0.0, 1.0), (0.0, 1.0)), f)
    with pytest.raises(ValueError):
        space.values[0, 0] = 2.0
    with pytest.raises(ValueError):
        space.values[...] = space.values[::-1]
    f[0, 0] = 1.0  # the caller's own array stays writable
    assert np.shares_memory(space.values, f)


def test_grid_cache_holds_no_full_grid_array_of_its_own():
    # a window table and a full mean leave values (coordinate views) and 1D
    # marginals behind, no per-node product
    space = _small_joint()
    x, y = cp.coordinate("x"), cp.coordinate("y")
    cp.evaluate_on_grid(space, x, y, [-0.5, 0.0, 0.5])
    cp.expectation(space, y)
    arrays = [a for entry in space._cache.values() if isinstance(entry, tuple)
              for a in entry if isinstance(a, np.ndarray)]
    assert arrays
    assert not [a for a in arrays if a.shape == space.values.shape and a.flags.owndata]


@pytest.mark.parametrize("make", [
    lambda: _small_joint(),
    lambda: cp.Sampler("gaussian-sum", {"var_x": 1.0, "var_noise": 1.0},
                       seed=20260811, budget=10**5),
])
def test_variance_is_memoised_per_variable(make):
    space = make()
    y = cp.coordinate("y")
    m = cp.expectation(space, y).value
    m2 = cp.expectation(space, y * y).value
    first = cp.variance(space, y)
    # the centred variance and the raw-moment difference agree up to roundoff
    assert math.isclose(first, max(m2 - m * m, 0.0), rel_tol=1e-14)
    sizes = []
    for _ in range(5):
        assert cp.variance(space, y) is first
        sizes.append(len(space._cache))
    assert sizes == [sizes[0]] * 5
    assert std(space, y) == math.sqrt(first)
    assert len(space._cache) == sizes[0]


@pytest.mark.parametrize("make", [
    lambda: _small_joint(),
    lambda: cp.Sampler("gaussian-sum", {"var_x": 1.0, "var_noise": 1.0},
                       seed=20260811, budget=10**5),
])
def test_expectation_of_fresh_variables_leaves_the_cache_flat(make):
    space = make()
    y = cp.coordinate("y")
    sizes = []
    for _ in range(5):
        assert cp.expectation(space, y * y).value > 0.0
        sizes.append(len(space._cache))
    assert sizes == [sizes[0]] * 5


@pytest.mark.parametrize("make", [
    lambda: _small_joint(),
    lambda: cp.Sampler("gaussian-sum", {"var_x": 1.0, "var_noise": 1.0},
                       seed=20260811, budget=10**5),
    lambda: cp.DiscreteAtoms.uniform(tuple(range(1, 7))),
])
def test_queried_space_is_freed_without_the_cycle_collector(make):
    gc.disable()
    try:
        space = make()
        if isinstance(space, cp.DiscreteAtoms):
            X = Y = cp.RandomVariable("X", lambda w: w)
        else:
            X, Y = cp.coordinate("x"), cp.coordinate("y")
        cp.variance(space, X)
        cp.cond_expectation_event(space, X, cp.Event.window(Y, 0.5, 0.25))
        assert len(space._cache) > 0
        ref = weakref.ref(space)
        del space
        assert ref() is None
    finally:
        gc.enable()


def test_probability_does_not_keep_its_spaces_alive():
    base = cp.Sampler("standard-normal-pair", seed=1, budget=10**4)
    event = cp.Event.window(cp.coordinate("y"), 0.0, 0.5)
    refs = []
    for i in range(3):
        space = base.substream(i)
        assert 0.0 < cp.probability(space, event).value < 1.0
        refs.append(weakref.ref(space))
    del space
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    # and the entry leaves a live space with its event
    space = base.substream(3)
    cp.probability(space, event)
    key = ("prob", id(event))
    assert key in space._cache
    del event
    assert key not in space._cache
