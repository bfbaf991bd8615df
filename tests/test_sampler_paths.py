"""Sampler window paths agree with numpy on the raw columns.

A sampler window gathers only its selected rows of each block, and only of
the columns the variable reads.  On one block the conditional estimates
must equal the plain boolean-mask computation bit for bit, and an event
moment within a few ulp (it is derived from the event's count and mean).
"""

import math

import numpy as np
import pytest

import condpoint as cp
from condpoint import spaces
from condpoint.config import expression_variable

N = 4000  # one block of rows
PARAMS = {"var_x": 1.0, "var_noise": 1.0}

# k * mean / n against sum / n, and the se from M2 against a sum over the rows
ULPS = 4 * np.finfo(float).eps


class _Column(np.ndarray):
    """A sample column that logs its label each time rows are gathered."""

    label = None
    log = None

    def take(self, indices, *args, **kwargs):
        self.log.append(self.label)
        return np.asarray(self).take(indices, *args, **kwargs)


@pytest.fixture
def spy_sampler(monkeypatch):
    """A three-column gaussian-sum sampler plus the log of the columns its
    passes gather from their block frames."""
    taken = []
    real_pass = spaces._pass

    def spying_pass(sampler, read):
        def logged(frame):
            views = {name: col.view(_Column) for name, col in frame.items()}
            for name, col in views.items():
                col.label, col.log = name, taken
            return read(views)

        return real_pass(sampler, logged)

    monkeypatch.setattr(spaces, "_pass", spying_pass)
    return cp.Sampler("gaussian-sum", PARAMS, seed=20260811, budget=N), taken


def _plain(cols):
    return {k: np.asarray(v) for k, v in cols.items()}


def _assert_moment(got, xs):
    """``got`` is E[1_A X] from the values ``xs`` of X on A, within ULPS."""
    k = xs.size
    m1 = float(xs.sum()) / N
    d = xs - m1
    var = (float((d * d).sum()) + (N - k) * m1 * m1) / N
    se = math.sqrt(var / N)
    assert got.n == N
    assert math.isclose(got.value, m1, rel_tol=ULPS) and math.isclose(got.se, se, rel_tol=ULPS)


y = cp.coordinate("y")
x = cp.coordinate("x")


EVENTS = {
    "window": (cp.Event.window(y, 0.5, 0.3),
               lambda c: (0.2 < c["y"]) & (c["y"] < 0.8)),
    "two-piece union": (
        cp.union_events([cp.Event.window(y, -1.0, 0.2), cp.Event.window(y, 1.0, 0.4)]),
        lambda c: ((-1.2 < c["y"]) & (c["y"] < -0.8)) | ((0.6 < c["y"]) & (c["y"] < 1.4))),
    "complement within": (
        cp.complement_within(cp.Sampler("gaussian-sum"), cp.Event.window(y, 0.0, 1.0)),
        lambda c: (c["y"] < -1.0) | (1.0 < c["y"])),
    "predicate": (cp.Event.where(lambda f: f["x"] > f["eps"], "x>eps"),
                  lambda c: c["x"] > c["eps"]),
}


@pytest.mark.parametrize("label", sorted(EVENTS))
def test_cond_and_moment_equal_numpy_on_columns(label, spy_sampler):
    space, _ = spy_sampler
    event, member = EVENTS[label]
    cols = _plain(space.columns())
    mask = member(cols)
    xs = cols["x"][mask]
    k = int(mask.sum())
    assert 1 < k < N

    got = space.cond(x, event)
    assert (got.value, got.se, got.n, got.prob, got.degenerate) == (
        float(xs.mean()), float(xs.std(ddof=1) / math.sqrt(k)), k, k / N, False)

    _assert_moment(space.moment(x, event), xs)
    p = k / N
    assert space.moment(None, event) == cp.Estimate(p, math.sqrt(p * (1.0 - p) / N), N)


@pytest.mark.parametrize("lo", [-math.inf, 0.0], ids=["every-row", "half"])
@pytest.mark.parametrize("c", [0.0, 1e6, 1e7, 1e8])
def test_event_moment_se_holds_at_any_offset(c, lo):
    # the se of E[1_A X] is the spread of 1_A X over all n rows; at a large
    # offset c a raw second moment m2 - m1^2 cancels
    n = 200_000
    space = cp.Sampler("standard-normal-pair", seed=0, budget=n)
    X = cp.coordinate("z") + c
    event = cp.Event.interval(y, lo, math.inf)
    cols = space.columns()
    ref = np.where(cols["y"] > lo, cols["z"] + c, 0.0).std() / math.sqrt(n)
    assert space.moment(X, event).se == pytest.approx(ref, rel=1e-6)


def test_empty_window_takes_the_degenerate_branch(spy_sampler):
    space, taken = spy_sampler
    event = cp.Event.window(y, 100.0, 1e-3)
    assert space.cond(x, event) == cp.ConditionalEstimate(
        0.0, n=0, prob=0.0, degenerate=True)
    assert space.moment(x, event) == cp.Estimate(0.0, 0.0, N)
    assert space.moment(None, event) == cp.Estimate(0.0, 0.0, N)
    assert taken == []


def test_empty_piece_list_selects_nothing(spy_sampler):
    space, _ = spy_sampler
    disjoint = cp.Event.window(y, -1.0, 0.1).intersect(cp.Event.window(y, 1.0, 0.1))
    assert disjoint.pieces == ()
    ind = space.indicator(disjoint)
    assert ind.dtype == bool and ind.shape == (N,) and not ind.any()


def test_config_expression_gathers_only_the_names_it_reads(spy_sampler):
    space, taken = spy_sampler
    event = cp.Event.window(x, 0.0, 0.5)
    cols = _plain(space.columns())
    mask = (-0.5 < cols["x"]) & (cols["x"] < 0.5)
    expr = expression_variable("g", "sqrt(abs(y)) + y * y")
    expected = expr.fn({k: v[mask] for k, v in cols.items()})
    k = int(mask.sum())

    got = space.cond(expr, event)
    assert taken == ["y"]
    assert (got.value, got.se, got.n) == (
        float(expected.mean()), float(expected.std(ddof=1) / math.sqrt(k)), k)


def test_frame_membership_iteration_and_length_gather_nothing(spy_sampler):
    space, taken = spy_sampler
    probes = []

    def fn(frame):
        probes.append(("y" in frame, "w" in frame, sorted(frame), len(frame)))
        return frame["y"] + frame["y"]

    got = space.cond(cp.RandomVariable("2y", fn), cp.Event.window(x, 0.0, 0.5))
    assert probes == [(True, False, ["eps", "x", "y"], 3)]
    assert taken == ["y"]
    assert got.n > 1


def test_variable_reading_the_whole_frame_gets_every_column_masked(spy_sampler):
    space, taken = spy_sampler
    seen = []

    def fn(frame):
        d = dict(frame)
        seen.append({k: len(v) for k, v in d.items()})
        return d["x"] - 0.5 * d["eps"]

    rv = cp.RandomVariable("x-eps/2", fn)
    event, member = EVENTS["two-piece union"]
    cols = _plain(space.columns())
    mask = member(cols)
    k = int(mask.sum())
    xs = cols["x"][mask] - 0.5 * cols["eps"][mask]

    got = space.cond(rv, event)
    assert seen == [{"x": k, "eps": k, "y": k}]
    assert sorted(taken) == ["eps", "x", "y"]
    assert (got.value, got.se) == (float(xs.mean()), float(xs.std(ddof=1) / math.sqrt(k)))
    _assert_moment(space.moment(rv, event), xs)


def test_window_gathers_add_no_cache_entries(spy_sampler):
    space, _ = spy_sampler
    event = cp.Event.window(y, 0.5, 0.3)
    space.cond(x, event)
    before = set(space._cache)
    for _ in range(3):
        space.cond(x, event)
        space.moment(expression_variable("g", "x * y"), event)
    assert set(space._cache) == before
