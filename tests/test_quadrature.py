"""The clipped-integral kernel against a scalar oracle, bit for bit.

The oracle evaluates the piecewise-linear antiderivative of one window at a
time on plain Python floats: clamp the window into the node range, find the
cell of each end (a node tie goes to the cell on its right), then
``cum[j] + (t - x0) * 0.5 * (v0 + v(t))``.  Results are compared by ``repr``,
so a sign of zero counts.
"""

import bisect

import numpy as np
import pytest

import condpoint as cp
from condpoint import quadrature as quad
from condpoint.spaces import window_moments


def _oracle(nodes: list, values: list, cum: list, lo: float, hi: float) -> float:
    lo, hi = max(lo, nodes[0]), min(hi, nodes[-1])
    if hi <= lo:
        return 0.0

    def at(t):
        j = min(max(bisect.bisect_right(nodes, t) - 1, 0), len(nodes) - 2)
        x0, x1, v0, v1 = nodes[j], nodes[j + 1], values[j], values[j + 1]
        v_t = v0 + (v1 - v0) * ((t - x0) / (x1 - x0))
        return cum[j] + (t - x0) * 0.5 * (v0 + v_t)

    return at(hi) - at(lo)


def _case(nodes, values):
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    return nodes, values, quad.cumulative(values, float(nodes[1] - nodes[0]))


def _assert_matches_oracle(nodes, values, cum, lo, hi):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    got = quad.clip_integral(nodes, values, lo, hi, cum)
    want = [_oracle(nodes.tolist(), values.tolist(), cum.tolist(), a, b)
            for a, b in zip(lo.tolist(), hi.tolist())]
    assert [repr(x) for x in got.tolist()] == [repr(x) for x in want]
    # one window on its own is a batch of one, and gives a float
    single = [quad.clip_integral(nodes, values, a, b, cum) for a, b in zip(lo, hi)]
    assert all(type(x) is float for x in single)
    assert [repr(x) for x in single] == [repr(x) for x in want]


NODES, VALUES, CUM = _case(np.linspace(-1.3, 2.9, 43),
                           np.sin(np.linspace(0.0, 7.0, 43)) + 0.4)


@pytest.mark.parametrize("lo, hi", [
    ([-5.0, -1.3, -2.0, 0.1], [0.0, 0.2, -1.25, 0.35]),           # clipped below
    ([2.0, 2.5, -0.5, 2.899], [3.5, 9.0, 2.9, 1e300]),            # clipped above
    ([-9.0, -np.inf, -1.3], [9.0, np.inf, 2.9]),                  # the whole range
    ([3.0, -9.0, 2.9, -4.0, 5.0], [4.0, -1.3, 7.0, -2.0, np.inf]),  # wholly outside: 0.0
    (NODES[[0, 3, 10, 20, 41]], NODES[[1, 7, 10, 33, 42]]),       # ends exactly on nodes
    ([0.5, -1.3, 2.9, 1.0], [0.5, -1.3, 2.9, 0.25]),              # lo == hi, and hi < lo
], ids=["clipped-low", "clipped-high", "whole-range", "outside", "on-nodes", "empty"])
def test_kernel_matches_scalar_oracle(lo, hi):
    _assert_matches_oracle(NODES, VALUES, CUM, lo, hi)


def test_kernel_matches_scalar_oracle_on_random_windows():
    rng = np.random.default_rng(20260811)
    lo = rng.uniform(-2.0, 3.5, 400)
    hi = lo + rng.uniform(-0.5, 2.0, 400)
    lo[:40] = rng.choice(NODES, 40)  # node ties at either end
    hi[40:80] = rng.choice(NODES, 40)
    _assert_matches_oracle(NODES, VALUES, CUM, lo, hi)


def test_kernel_outside_windows_are_zero():
    got = quad.clip_integral(NODES, VALUES, np.array([3.0, -8.0]), np.array([4.0, -2.0]), CUM)
    assert [repr(x) for x in got.tolist()] == ["0.0", "0.0"]


def test_kernel_broadcasts_a_scalar_end():
    his = np.array([-0.2, 0.7, 2.2])
    got = quad.clip_integral(NODES, VALUES, -1.3, his, CUM)
    assert [repr(x) for x in got.tolist()] == [repr(_oracle(
        NODES.tolist(), VALUES.tolist(), CUM.tolist(), -1.3, h)) for h in his.tolist()]


# Node values whose window (0, 1.3) integrates to -0.0: the subnormal slope
# rounds to -0.0 on a cumulative that is -0.0 itself.
SIGNED_ZERO = [-0.0, -0.0, -5e-324, -0.5, -1.0]


def test_kernel_keeps_a_negative_zero_integral():
    nodes, values, cum = _case([0.0, 1.0, 2.0, 3.0, 4.0], SIGNED_ZERO)
    assert repr(_oracle(nodes.tolist(), values.tolist(), cum.tolist(), 0.0, 1.3)) == "-0.0"
    _assert_matches_oracle(nodes, values, cum, [0.0, 0.0], [1.3, 1.0])


def test_grid_moment_of_a_negative_zero_integral_reads_zero():
    # x*f is SIGNED_ZERO; an event's moment is a sum started at 0, so the
    # -0.0 integral reads 0.0, on one event and on a batch of windows alike
    space = cp.DensityGrid1D("y", 0.0, 4.0, [0.0, 0.0, 5e-324, 0.5, 1.0])
    minus_one = cp.RandomVariable("minus_one", lambda frame: -1.0)
    event = cp.Event.interval(cp.coordinate("y"), 0.0, 1.3)
    assert repr(space.moment(minus_one, event).value) == "0.0"
    batch = window_moments(space, minus_one, 0, np.array([0.0, 0.0]),
                           np.array([1.3, 2.5]))[:, 1].tolist()
    assert repr(batch[0]) == "0.0"
    assert repr(batch[1]) == repr(space.moment(
        minus_one, cp.Event.interval(cp.coordinate("y"), 0.0, 2.5)).value)


def test_kernel_requires_the_cumulative():
    with pytest.raises(TypeError):
        quad.clip_integral(NODES, VALUES, 0.0, 1.0)


def _assert_columns_match_1d_calls(nodes, columns, lo, hi):
    # (n, 2) node values clip to the repr of two 1D calls, column by column
    pitch = float(nodes[1] - nodes[0])
    cums = [quad.cumulative(c, pitch) for c in columns]
    got = quad.clip_integral(nodes, np.stack(columns, axis=-1), lo, hi,
                             np.stack(cums, axis=-1))
    assert got.shape == np.broadcast(np.asarray(lo), np.asarray(hi)).shape + (2,)
    for c, (values, cum) in enumerate(zip(columns, cums)):
        want = np.asarray(quad.clip_integral(nodes, values, lo, hi, cum))
        assert [repr(x) for x in got[..., c].ravel().tolist()] == \
            [repr(x) for x in want.ravel().tolist()], c


@pytest.mark.parametrize("lo, hi", [
    (np.array([0.0, 0.0, 0.5, 2.5]), np.array([1.3, 1.0, 0.5, 0.2])),  # -0.0, and empty
    (np.array([-3.0, 3.5, -np.inf, 1.0]), np.array([-1.0, 9.0, np.inf, 1e300])),  # off the range
    (np.array([np.nan, 0.2, 1.0]), np.array([1.0, np.nan, 3.5])),  # a NaN end
    (0.7, np.array([0.9, 2.0, 3.3, 4.0])),                       # a scalar end broadcast
    (np.array([[0.1, 1.5], [2.2, -1.0]]), np.array([[0.4, 3.9], [2.3, 0.0]])),  # 2D batch
    (1.2, 3.1),                                                  # one window
], ids=["signed-zero", "off-range", "nan-end", "scalar-end", "2d-batch", "one-window"])
def test_kernel_on_two_columns_is_two_1d_calls(lo, hi):
    nodes = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    columns = [np.array(SIGNED_ZERO), np.array([0.25, 1.5, 0.75, 2.0, 0.5])]
    _assert_columns_match_1d_calls(nodes, columns, lo, hi)


def test_kernel_on_two_columns_matches_random_windows():
    rng = np.random.default_rng(20260811)
    lo = rng.uniform(-2.0, 3.5, 200)
    hi = lo + rng.uniform(-0.5, 2.0, 200)
    lo[:20] = rng.choice(NODES, 20)  # node ties
    _assert_columns_match_1d_calls(NODES, [VALUES, np.cos(NODES) * VALUES], lo, hi)
