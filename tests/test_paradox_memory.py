"""The paradox task's peak memory does not grow with its row budget.

Each budget runs `condpoint paradox` in a child process of its own, which
prints its own peak resident size as its last line.  A task that keeps rows
in proportion to the budget reads about 50 MiB more at 4M rows than at
500k; one that streams its rows reads the same at both.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import resource, sys
from condpoint import cli
code = cli.main(["paradox", "--budget", sys.argv[1], "--out", sys.argv[2]])
# ru_maxrss is in KiB on Linux and in bytes on macOS
scale = 1 if sys.platform == "darwin" else 1024
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 2**20)
sys.exit(code)
"""

# two budgets an order of magnitude apart, whose peaks must agree within this
PEAK_SPREAD_MIB = 8.0


def _peak_mib(budget: int, out: Path) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", CHILD, str(budget), str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return float(done.stdout.splitlines()[-1])


def test_paradox_peak_memory_does_not_grow_with_the_budget(tmp_path):
    small = _peak_mib(500_000, tmp_path / "small.json")
    large = _peak_mib(4_000_000, tmp_path / "large.json")
    assert abs(large - small) <= PEAK_SPREAD_MIB, (small, large)
