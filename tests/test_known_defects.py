"""Known-defect register: each wrong verdict that ROADMAP.md names, as a test
of the correct behaviour that fails today.

Every test states what condpoint should do, against an independent truth
(a closed form), and carries ``xfail(strict=True)`` with the ROADMAP item
that tracks it.  A fix makes its test pass; strict mode then fails the
suite until the fixing change removes the marker, so each mended defect
shows as a marker removed.

The entries are on grids but one: item 16's sampler case, whose seed and
row count were fixed before its outcome was seen, so a change to how
samplers draw or sum their rows can move it.  Left out: item 8's cases,
which need 20M rows or more (they belong to a coverage script, item 10).
The whole module runs in well under 2 s.
"""

import math

import numpy as np
import pytest

import condpoint as cp
from condpoint.config import build_space, load_scenario
from condpoint.window import CONVERGED, shrink_trace

from conftest import SCENARIO_DIR


def _known(item: int):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}")


@_known(2)
def test_every_converged_gaussian_posterior_trace_is_within_tol_of_the_truth():
    # the shipped table on the 1201^2 gaussian-sum grid, where E[X | Y = y] = y / 2
    scn = load_scenario(SCENARIO_DIR / "gaussian-posterior.json")
    lo, hi, count = scn.param("grid")
    bundle = scn.bundle
    table = cp.evaluate_on_grid(bundle.space, bundle.variable("X"), bundle.variable("Y"),
                                np.linspace(lo, hi, int(count)), tol=scn.tol)
    wrong = [(float(y), tr.value) for y, tr in zip(table.y_grid, table.traces)
             if tr.verdict == CONVERGED and abs(tr.value - y / 2) > tr.tol]
    assert wrong == []


@_known(2)
def test_verify_accepts_the_exact_partition_candidate_on_a_grid():
    # cells cut at -1, 0, 1 on a 401^2 gaussian-sum grid: the candidate is
    # each cell's own conditional mean, so every identity holds exactly
    space = build_space({"kind": "grid2d", "axes": ["x", "y"],
                         "density": {"family": "gaussian-sum", "var_x": 1.0, "var_noise": 1.0},
                         "nodes": [401, 401]})
    x, y = cp.coordinate("x"), cp.coordinate("y")
    part = cp.Partition.from_interval_cuts(space, y, [-1.0, 0.0, 1.0])
    exact = cp.partition_cond_exp(space, x, part).rv
    assert cp.verify_cond_exp(space, x, exact, part.cells).passed


def _ratio(frame):
    # the z = 0 node row has no ratio; its nodes fall in no window
    with np.errstate(divide="ignore", invalid="ignore"):
        return frame["y"] / frame["z"]


@_known(17)
def test_a_grid_ratio_family_does_not_converge_away_from_its_closed_form():
    # independent standard normal (z, y) on a 301^2 grid over [-8, 8]^2:
    # E[Z^2 | |Y / Z| < eps] = 1 + eps / ((1 + eps^2) atan eps), which tends to 2
    space = build_space({"kind": "grid2d", "axes": ["z", "y"],
                         "density": {"family": "bivariate-normal", "rho": 0.0},
                         "ranges": [[-8.0, 8.0], [-8.0, 8.0]], "nodes": [301, 301]})
    ratio = cp.RandomVariable("y_over_z", _ratio)
    z_sq = cp.RandomVariable("z_squared", lambda f: f["z"] ** 2)
    pairs = [(eps, cp.Event.window(ratio, 0.0, eps))
             for eps in cp.Schedule(eps0=0.4, depth=8).epsilons(None)]
    tr = shrink_trace(space, z_sq, pairs, tol=1e-6, target=0.0, stop_early=False)
    eps = tr.steps[-1].eps
    closed = 1.0 + eps / ((1.0 + eps * eps) * math.atan(eps))
    assert tr.verdict != CONVERGED or abs(tr.value - closed) <= tr.tol


@_known(3)
def test_a_jump_point_is_not_a_converged_window_value():
    # f(x, y) = N(x; sign y, 1) N(y) on an 801^2 grid: E[X | Y = y] = sign y,
    # so y = 0 is no Lebesgue point and the one-sided limits are -1 and 1;
    # the symmetric window's 0 is an artifact of the window
    nodes = np.linspace(-8.0, 8.0, 801)
    x, y = np.meshgrid(nodes, nodes, indexing="ij")
    values = np.exp(-0.5 * (x - np.sign(y)) ** 2 - 0.5 * y * y) / (2.0 * math.pi)
    space = cp.DensityGrid2D(("x", "y"), ((-8.0, 8.0), (-8.0, 8.0)), values)
    tr = cp.window_estimate(space, cp.coordinate("x"), cp.coordinate("y"), 0.0)
    assert tr.verdict != CONVERGED


@_known(16)
def test_verify_accepts_the_exact_partition_candidate_at_a_large_offset():
    # cells of Y cut at -1, 0, 1 on a 200k-row sampler, X = Z + 1e8: the
    # candidate is each cell's own sample mean, so every identity holds for
    # the empirical measure, up to roundoff in sums of size |X|
    space = cp.Sampler("standard-normal-pair", seed=0, budget=200_000)
    X, y = cp.coordinate("z") + 1e8, cp.coordinate("y")
    part = cp.Partition.from_interval_cuts(space, y, [-1.0, 0.0, 1.0])
    exact = cp.partition_cond_exp(space, X, part).rv
    assert cp.verify_cond_exp(space, X, exact, part.cells).passed
