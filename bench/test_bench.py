"""Tests of the benchmark itself: oracle accounting, the tracer, the report.

Run with ``python3 -m pytest bench -q`` from the repository root.  They use
planted op outputs and tiny spaces, so they take a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import condpoint as cp  # noqa: E402
from condpoint import window  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import OpTimer, Tracer  # noqa: E402


def _failed(checks):
    return [c for c in checks if c.failure is not None]


def test_grid_table_counts_planted_off_tolerance_value():
    wl = workloads.GridTable(ROOT, seed=0)
    y = 1.0
    exact = oracles.posterior_mean(y)
    ops = [
        workloads.Op((0, y), 0.01, (exact + 1e-6, "Converged", exact)),
        workloads.Op((0, y), 0.01, (exact + 2e-4, "Converged", exact)),   # planted
        workloads.Op((1, y), 0.01, (0.0, "Plateaued", 0.0)),               # wrong verdict
        workloads.Op((2, y), 0.01, error="NonApproachablePoint: planted"),  # raised
    ]
    checks = wl.check(ops)
    assert len(checks) == 4
    assert [c.label for c in _failed(checks)] == [(2, y), (0, y), (1, y)]
    assert max(c.err for c in checks) == pytest.approx(2e-4)


def test_atoms_verify_counts_planted_off_tolerance_value():
    wl = workloads.AtomsVerify(ROOT, seed=3)
    space, X = wl.setup()
    part = wl.parts[0]
    good = wl.run_pass((space, X))[0]
    assert good.error is None and not _failed(wl.check([good]))
    values, mean, report, fac, tp = good.output
    planted = workloads.Op(0, 0.01, (values, mean, report, fac, tp + 1e-9))
    [check] = wl.check([planted])
    assert check.failure is not None and check.err == pytest.approx(1e-9, rel=1e-3)
    assert abs(tp - part["event_prob"]) <= oracles.EXACT_TOL


def test_scenario_run_counts_planted_artifact_value(tmp_path):
    wl = workloads.ScenarioRun(ROOT, seed=0, work=tmp_path)
    [first] = wl.run_pass(None)
    assert first.error is None and not _failed(wl.check([first]))
    [op] = wl.run_pass(None)
    path = op.output[0] / "gaussian-posterior.json"
    doc = json.loads(path.read_text())
    doc["values"][0] += 2e-4  # planted: off the criterion 02 tolerance
    path.write_text(json.dumps(doc))
    [check] = wl.check([op])
    assert "gaussian-posterior.json" in check.failure
    assert "differ from the first pass" in check.failure


def test_sampler_paradox_charges_report_checks_to_last_family():
    wl = workloads.SamplerParadox(ROOT, seed=0)
    gap = wl.fixture["gap_second_moment"]
    conv = SimpleNamespace(verdict="Converged")

    def report(discrepancy, tol, names):
        return SimpleNamespace(traces={n: conv for n in names},
                               discrepancy=discrepancy, combined_tol=tol)

    main_ok = report(gap + 1e-3, 0.01, ("via_y", "via_ratio"))
    main_bad = report(gap + 2e-2, 0.01, ("via_y", "via_ratio"))  # planted gap error
    control = report(1e-3, 0.01, ("via_y", "via_y_narrow"))
    ops = [workloads.Op(("main", "via_y"), 1.0, main_ok),
           workloads.Op(("main", "via_ratio"), 1.0, main_ok),
           workloads.Op(("control", "via_y"), 1.0, control),
           workloads.Op(("control", "via_y_narrow"), 1.0, control)]
    assert not _failed(wl.check(ops))
    ops[0].output = ops[1].output = main_bad
    assert [c.label for c in _failed(wl.check(ops))] == [("main", "via_ratio")]


def test_tracer_patches_every_lookup_site_and_restores():
    original = cp.spaces.std
    tracer = Tracer()
    with tracer:
        assert window.std is cp.spaces.std is not original
        assert window.std.__wrapped__ is original
        for module, name in [(window, "cond_expectation_event"),
                             (cp.pathology, "shrink_trace"),
                             (cp.partition, "indicator_moment"),
                             (cp.cli, "write_json"),
                             (cp, "window_estimate")]:
            assert hasattr(getattr(module, name), "__wrapped__"), (module.__name__, name)
        assert hasattr(cp.DensityGrid2D.moment, "__wrapped__")
        space = cp.DensityGrid1D("y", -8.0, 8.0, np.exp(-0.5 * np.linspace(-8, 8, 401) ** 2)
                                 / np.sqrt(2 * np.pi), quad_tol=1e-6)
        y = cp.coordinate("y")
        trace = cp.window_estimate(space, y, y, 0.5)
    assert window.std is cp.spaces.std is original
    assert not hasattr(cp.cli.write_json, "__wrapped__")
    assert not hasattr(cp.DensityGrid2D.moment, "__wrapped__")
    summary = tracer.summary()
    assert summary["window.window_estimate"]["calls"] == 1
    assert summary["spaces.std"]["calls"] == 1
    assert tracer.counts["window.steps"] == len(trace.steps)
    # self time never exceeds total time, and the outermost span covers its children
    for row in summary.values():
        assert row["self_s"] <= row["total_s"] + 1e-9
    assert summary["window.window_estimate"]["total_s"] >= summary["window.shrink_trace"]["total_s"]


def test_tracer_counts_distinct_sampler_draws():
    tracer = Tracer()
    with tracer:
        s = cp.Sampler("standard-normal-pair", seed=1, budget=1000)
        s.columns()
        s.columns()
        s.substream(0).columns()
    assert tracer.counts["spaces.Sampler.rows_drawn"] == 2000


def test_op_timer_restores_lookup_site():
    original = cp.pathology.shrink_trace
    with OpTimer(cp.pathology, "shrink_trace") as timer:
        assert cp.pathology.shrink_trace is not original
    assert cp.pathology.shrink_trace is original and timer.calls == []


def test_report_marks_failed_run(capsys):
    args = SimpleNamespace(trace=0, seed=1)
    wl = SimpleNamespace(name="stub", inputs={"ops": 2})
    checks = [workloads.Check("a", 0.0, None), workloads.Check("b", 1.0, "planted")]
    passes = [{"traced": False, "build_s": 0.1, "wall_s": 1.0, "rss_growth_mb": 0.0,
               "checks": checks, "latencies": [0.4, 0.6]}]
    assert run._report(args, wl, [0.2], passes) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["attempted"] == 2 and result["failed"] == 1
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid-table",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_first_untraced_pass_is_a_warm_up_when_two_more_follow():
    passes = [{"traced": t, "wall_s": w} for t, w in
              [(False, 9.0), (True, 5.0), (False, 2.0), (False, 3.0)]]
    assert [p["wall_s"] for p in run._timed_passes(passes)] == [2.0, 3.0]
    assert [p["wall_s"] for p in run._timed_passes(passes[:3])] == [9.0, 2.0]
