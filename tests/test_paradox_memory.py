"""Streamed tasks: peak memory does not grow with the row budget.

Each budget runs a task in a child process of its own, which prints its own
peak resident size as its last line.  A task that keeps rows in proportion
to the budget reads tens of MiB more at 4M rows than at 500k (the paradox
about 50 MiB, a sampler window about 130 MiB); one that streams its rows
reads the same at both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def _peak_mib(argv: list) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return float(done.stdout.splitlines()[-1])


def test_paradox_peak_memory_does_not_grow_with_the_budget(tmp_path):
    small = _peak_mib(["paradox", "--budget", "500000", "--out", str(tmp_path / "small.json")])
    large = _peak_mib(["paradox", "--budget", "4000000", "--out", str(tmp_path / "large.json")])
    assert abs(large - small) <= PEAK_SPREAD_MIB, (small, large)


def _window_peak_mib(tmp_path: Path, budget: int) -> float:
    # the default eps0, so the task streams std(Y) and then every window
    space = tmp_path / f"sampler-{budget}.json"
    space.write_text(json.dumps({
        "schema_version": 1, "kind": "sampler", "family": "gaussian-sum",
        "seed": 20260811, "budget": budget,
        "variables": {"X": {"coord": "x"}, "Y": {"coord": "y"}}}), encoding="utf-8")
    return _peak_mib(["window", "--space", str(space), "--x", "X", "--y", "Y", "--at", "2.0",
                      "--out", str(tmp_path / f"window-{budget}.json")])


def test_sampler_window_peak_memory_does_not_grow_with_the_budget(tmp_path):
    small = _window_peak_mib(tmp_path, 500_000)
    large = _window_peak_mib(tmp_path, 4_000_000)
    assert abs(large - small) <= PEAK_SPREAD_MIB, (small, large)
