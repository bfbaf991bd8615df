"""Streamed tasks: peak memory does not grow with the row budget.

Each budget runs a task in a child process of its own, which prints its own
peak resident size as its last line.  A task that keeps rows in proportion
to the budget reads tens of MiB more at 4M rows than at 500k (the paradox
about 50 MiB, a sampler window about 130 MiB, factorize about 90 MiB); one
that streams its rows reads the same at both.  No sampler query reads the
full stream (``Sampler.columns``), which only tests keep as a reference.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import condpoint as cp
from condpoint.factorization import BAND_WITNESS_TOL, distinct_values

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import resource, sys
from condpoint import cli
code = cli.main(sys.argv[1:])
# ru_maxrss is in KiB on Linux and in bytes on macOS
scale = 1 if sys.platform == "darwin" else 1024
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 2**20)
sys.exit(code)
"""

# two budgets an order of magnitude apart, whose peaks must agree within this
PEAK_SPREAD_MIB = 8.0


def _peak_mib(argv: list, code: int = 0) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == code, done.stderr
    return float(done.stdout.splitlines()[-1])


def test_paradox_peak_memory_does_not_grow_with_the_budget(tmp_path):
    small = _peak_mib(["paradox", "--budget", "500000", "--out", str(tmp_path / "small.json")])
    large = _peak_mib(["paradox", "--budget", "4000000", "--out", str(tmp_path / "large.json")])
    assert abs(large - small) <= PEAK_SPREAD_MIB, (small, large)


def _sampler_space(tmp_path: Path, budget: int) -> Path:
    space = tmp_path / f"sampler-{budget}.json"
    space.write_text(json.dumps({
        "schema_version": 1, "kind": "sampler", "family": "gaussian-sum",
        "seed": 20260811, "budget": budget,
        "variables": {"X": {"coord": "x"}, "Y": {"coord": "y"}}}), encoding="utf-8")
    return space


def _window_peak_mib(tmp_path: Path, budget: int) -> float:
    # the default eps0, so the task streams std(Y) and then every window
    return _peak_mib(["window", "--space", str(_sampler_space(tmp_path, budget)),
                      "--x", "X", "--y", "Y", "--at", "2.0",
                      "--out", str(tmp_path / f"window-{budget}.json")])


def test_sampler_window_peak_memory_does_not_grow_with_the_budget(tmp_path):
    small = _window_peak_mib(tmp_path, 500_000)
    large = _window_peak_mib(tmp_path, 4_000_000)
    assert abs(large - small) <= PEAK_SPREAD_MIB, (small, large)


def _factorize_peak_mib(tmp_path: Path, budget: int) -> float:
    # X is not a function of Y, so the task reports NotMeasurable and exits 1
    out = tmp_path / f"factorize-{budget}.json"
    peak = _peak_mib(["factorize", "--space", str(_sampler_space(tmp_path, budget)),
                      "--g", "X", "--y", "Y", "--levels", "0,2", "--band", "1e-4",
                      "--out", str(out)], code=1)
    assert json.loads(out.read_text(encoding="utf-8"))["verdict"] == "NotMeasurable"
    return peak


def test_sampler_factorize_peak_memory_does_not_grow_with_the_budget(tmp_path):
    small = _factorize_peak_mib(tmp_path, 500_000)
    large = _factorize_peak_mib(tmp_path, 4_000_000)
    assert abs(large - small) <= PEAK_SPREAD_MIB, (small, large)


def test_sampler_queries_read_no_full_stream(monkeypatch):
    # factorize, the partition path and pushforward stream their passes;
    # their witnesses and counts are the full stream's, bit for bit
    def full_stream(*args, **kwargs):
        raise AssertionError("a sampler query read the full stream")

    monkeypatch.setattr(cp.Sampler, "columns", full_stream)
    n = 200_000
    space = cp.Sampler("gaussian-sum", seed=20260811, budget=n)
    x, y = cp.coordinate("x"), cp.coordinate("y")
    fac = cp.factorize(space, x, y, [0.0, 2.0], band=1e-4)
    part = cp.Partition.from_interval_cuts(space, y, [-1.0, 0.0, 1.0])
    pce = cp.partition_cond_exp(space, x, part)
    report = cp.verify_cond_exp(space, x, pce.rv, part.cells)
    law = cp.pushforward(space, y, bins=(-8.0, 8.0, 64))
    assert fac.verdict == "NotMeasurable" and report.passed
    assert "columns" not in space._cache
    monkeypatch.undo()
    for level, witnesses in zip(fac.levels, fac.witnesses):
        band = space.indicator(cp.Event.window(y, level, 1e-4))
        assert witnesses == distinct_values(space.values_of(x)[band], BAND_WITNESS_TOL)
    mass = np.histogram(space.columns()["y"], bins=64, range=(-8.0, 8.0))[0] / float(n)
    assert np.array_equal(law.weights, mass / float(mass.sum()))
