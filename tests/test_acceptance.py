"""Acceptance suite: one test per shipped claim, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else; every expected number
is either exact, frozen from an independent oracle, or a property.
"""

import math
import time

import numpy as np
import pytest

import condpoint as cp
from condpoint import cli
from condpoint.pathology import four_set_algebra, ratio_normal_instance

import oracles
from conftest import SCENARIO_DIR


def _verdict(num, label, ok, detail):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def test_criterion_01_dice_exactness(dice, dice_X, dice_halves):
    cp.partition_cond_exp(dice, dice_X, dice_halves)  # warm caches
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        pce = cp.partition_cond_exp(dice, dice_X, dice_halves)
        best = min(best, time.perf_counter() - t0)
    empty = cp.cond_expectation_event(dice, dice_X, cp.Event.from_atoms(set()))
    whole = cp.cond_expectation_event(dice, dice_X,
                                      cp.Event.from_atoms(set(dice.atoms)))
    devs = [abs(pce.values[0] - 1.5), abs(pce.values[1] - 4.5),
            abs(empty.value - 0.0), abs(whole.value - 3.5)]
    ok = max(devs) <= 1e-12 and best < 1e-3
    _verdict(1, "dice-exactness", ok,
             f"max dev {max(devs):.2e}, runtime {best * 1e6:.0f}us")


def test_criterion_02_gaussian_posterior(gaussian_sum_grid, gaussian_sum_sampler):
    t0 = time.perf_counter()
    ys = (-2.0, -1.0, 0.0, 1.0, 2.0)
    grid_devs = []
    for y in ys:
        tr = cp.window_estimate(gaussian_sum_grid, cp.coordinate("x"),
                                cp.coordinate("y"), y)
        grid_devs.append(abs(tr.value - oracles.posterior_mean(y)))
    sampler_ok = True
    sampler_worst = 0.0
    for y in ys:
        tr = cp.window_estimate(gaussian_sum_sampler, cp.coordinate("x"),
                                cp.coordinate("y"), y)
        ratio = abs(tr.value - oracles.posterior_mean(y)) / (3.0 * tr.steps[-1].se)
        sampler_worst = max(sampler_worst, ratio)
        sampler_ok = sampler_ok and ratio <= 1.0
    elapsed = time.perf_counter() - t0
    ok = max(grid_devs) <= 1e-4 and sampler_ok and elapsed < 30.0
    _verdict(2, "gaussian-posterior", ok,
             f"grid max dev {max(grid_devs):.2e} vs 1e-4, sampler worst "
             f"{sampler_worst:.2f}x3se, {elapsed:.1f}s")


def test_criterion_03_window_density_agreement(bivariate):
    t0 = time.perf_counter()
    worst = 0.0
    y_grid = np.linspace(-2.0, 2.0, 21)
    for rho in (0.0, 0.5, 0.9):
        joint = bivariate(rho)
        table = cp.evaluate_on_grid(joint, cp.coordinate("z"), cp.coordinate("y"),
                                    y_grid)
        dens = np.array([cp.conditional_expectation_via_density(joint, y)
                         for y in y_grid])
        worst = max(worst, float(np.abs(table.values - dens).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 60.0
    _verdict(3, "window-density-agreement", ok,
             f"max |window - ratio| {worst:.2e} vs 1e-3, {elapsed:.1f}s")


def test_criterion_04_tower_property(dice, dice_X, coin_pair, normal_grid,
                                     gaussian_sum_grid):
    worst_discrete = 0.0
    for groups in ([{1, 2}, {3, 4, 5, 6}], [{1, 3, 5}, {2, 4, 6}],
                   [{1}, {2}, {3}, {4}, {5}, {6}]):
        part = cp.Partition.from_atom_groups(dice, groups)
        pce = cp.partition_cond_exp(dice, dice_X, part)
        worst_discrete = max(worst_discrete,
                             abs(pce.mean() - cp.expectation(dice, dice_X).value))
    total = cp.RandomVariable("sum", lambda w: w[0] + w[1])
    part = cp.Partition.from_atom_groups(coin_pair,
                                         [{(0, 0), (0, 1)}, {(1, 0), (1, 1)}])
    pce = cp.partition_cond_exp(coin_pair, total, part)
    worst_discrete = max(worst_discrete,
                         abs(pce.mean() - cp.expectation(coin_pair, total).value))

    worst_grid = 0.0
    y = cp.coordinate("y")
    part1 = cp.Partition.from_interval_cuts(normal_grid, y, [-1.0, 0.5])
    pce1 = cp.partition_cond_exp(normal_grid, y * y, part1)
    worst_grid = max(worst_grid,
                     abs(pce1.mean() - cp.expectation(normal_grid, y * y).value))
    part2 = cp.Partition.from_interval_cuts(gaussian_sum_grid, y, [0.0])
    pce2 = cp.partition_cond_exp(gaussian_sum_grid, cp.coordinate("x"), part2)
    worst_grid = max(worst_grid,
                     abs(pce2.mean()
                         - cp.expectation(gaussian_sum_grid, cp.coordinate("x")).value))
    ok = worst_discrete <= 1e-12 and worst_grid <= 1e-8
    _verdict(4, "tower-property", ok,
             f"discrete {worst_discrete:.2e} vs 1e-12, grid {worst_grid:.2e} vs 1e-8")


def test_criterion_05_total_probability(dice, dice_halves, coin_pair):
    rng = np.random.default_rng(0)
    coin_part = cp.Partition.from_atom_groups(coin_pair,
                                              [{(0, 0), (0, 1)}, {(1, 0), (1, 1)}])
    worst = 0.0
    for _ in range(100):
        atoms_d = {w for w in dice.atoms if rng.random() < 0.5}
        A = cp.Event.from_atoms(atoms_d)
        worst = max(worst, abs(cp.total_probability(dice, A, dice_halves)
                               - cp.probability(dice, A).value))
        atoms_c = {w for w in coin_pair.atoms if rng.random() < 0.5}
        B = cp.Event.from_atoms(atoms_c)
        worst = max(worst, abs(cp.total_probability(coin_pair, B, coin_part)
                               - cp.probability(coin_pair, B).value))
    ok = worst <= 1e-12
    _verdict(5, "law-of-total-probability", ok,
             f"100 randomized events, max dev {worst:.2e} vs 1e-12")


def test_criterion_06_factorization(dice):
    two = cp.DiscreteAtoms(("w1", "w2"), np.array([0.5, 0.5]))
    g = cp.RandomVariable("g", lambda w: {"w1": 1.0, "w2": 2.0}[w])
    const = cp.RandomVariable("f", lambda w: 0.0)
    res = cp.factorize(two, g, const, [0.0])
    counter_ok = (res.verdict == "NotMeasurable" and len(res.witnesses[0]) == 2)

    phi = {1.0: -3.5, 2.0: 0.25, 3.0: 11.0}
    Y = cp.RandomVariable("Y", lambda w: float((w - 1) % 3 + 1))
    comp = cp.RandomVariable("phi.Y", lambda w: phi[float((w - 1) % 3 + 1)])
    round_trip = cp.factorize(dice, comp, Y, [1.0, 2.0, 3.0])
    trip_ok = round_trip.verdict == "Factored" and round_trip.table == phi

    parity = cp.RandomVariable("parity", lambda w: w % 2)
    comp2 = cp.RandomVariable("h.parity", lambda w: 10.0 - 3.0 * (w % 2))
    trip2 = cp.factorize(dice, comp2, parity, [0.0, 1.0])
    trip_ok = trip_ok and trip2.table == {0.0: 10.0, 1.0: 7.0}

    ok = counter_ok and trip_ok
    _verdict(6, "factorization", ok,
             f"counterexample witnesses {res.witnesses[0]}, round trips exact")


def test_criterion_07_non_uniqueness_executed(d8_null):
    space, X, A = d8_null
    natural, planted = cp.too_coarse_demo(space, X, A)
    gens = four_set_algebra(space, A)
    residuals = []
    for cand in (natural, planted):
        report = cp.verify_cond_exp(space, X, cand, gens)
        residuals.extend(e.residual for e in report.entries)
        assert report.passed
    differ = natural.fn(0) != planted.fn(0)
    ok = all(r == 0.0 for r in residuals) and differ
    _verdict(7, "non-uniqueness-executed", ok,
             f"all {len(residuals)} residuals exactly 0, values on null event "
             f"{natural.fn(0)} vs {planted.fn(0)}")


def test_criterion_08_paradox_margin(paradox_oracle):
    # main and control from one draw plan, as `condpoint paradox` runs them
    inst = ratio_normal_instance()
    rep, control = cp.paradox_reports(
        inst["space"], inst["X"],
        [(inst["families"], inst["description"]), (inst["control_families"], "")],
        inst["schedule"])
    gap_err = abs(rep.discrepancy - paradox_oracle["gap_second_moment"])
    margin_ok = rep.discrepancy > 10.0 * rep.combined_tol
    control_ok = control.discrepancy <= control.combined_tol
    converged = all(t.verdict == "Converged" for t in rep.traces.values())
    ok = gap_err <= 1e-2 and margin_ok and control_ok and converged
    _verdict(8, "paradox-margin", ok,
             f"gap {rep.discrepancy:.4f} (oracle err {gap_err:.2e} vs 1e-2), "
             f"10x tol {10 * rep.combined_tol:.3f}, control gap "
             f"{control.discrepancy:.2e} <= {control.combined_tol:.2e}")


def test_criterion_09_convergence_order(gaussian_sum_grid, normal_grid):
    smooth = cp.window_estimate(gaussian_sum_grid, cp.coordinate("x"),
                                cp.coordinate("y"), 1.0,
                                schedule=cp.Schedule(eps0=0.7, depth=12),
                                tol=1e-12, stop_early=False)
    order_smooth = cp.convergence_order(smooth)
    kinked = cp.RandomVariable("absY", lambda f: abs(f["y"]))
    kink = cp.window_estimate(normal_grid, kinked, cp.coordinate("y"), 0.0,
                              schedule=cp.Schedule(eps0=1.0, depth=12),
                              tol=1e-12, stop_early=False)
    order_kink = cp.convergence_order(kink)
    ok = order_smooth >= 1.8 and 0.8 <= order_kink <= 1.2
    _verdict(9, "convergence-order", ok,
             f"smooth {order_smooth:.3f} >= 1.8, kink {order_kink:.3f} in [0.8, 1.2]")


def test_criterion_10_determinism(tmp_path):
    scenarios = sorted(SCENARIO_DIR.glob("*.json"))
    assert scenarios, "no scenarios shipped"
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    sum_a = cli.run_paths(scenarios, out_a)
    sum_b = cli.run_paths(scenarios, out_b)
    assert sum_a["ok"] and sum_b["ok"], sum_a
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    same_names = files_a == files_b
    identical = same_names and all(
        (out_a / f).read_bytes() == (out_b / f).read_bytes() for f in files_a)
    ok = identical and len(files_a) >= len(scenarios)
    _verdict(10, "determinism", ok,
             f"{len(files_a)} artifacts byte-identical across two runs")
