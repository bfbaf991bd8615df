#!/usr/bin/env python3
"""Time one grid op: a window trace plus its density ratio, in microseconds.

    PYTHONPATH=src python3 scripts/time_grid_trace.py

An op is ``window_estimate`` of X given Y = y on a shipped 2D density grid,
followed by ``conditional_expectation_via_density`` at the same y, as one
op of the benchmark's ``grid-table`` workload runs them.  Each grid is
loaded and its cached marginals built by one untimed round over its
targets; then each of REPEAT rounds times all targets once.  Prints the
best and the median round per grid, in microseconds per op.  Run it with
another checkout's ``src`` on ``PYTHONPATH`` to compare two trees on the
same machine; the spaces are read from this script's checkout.
"""

import statistics
import time
from pathlib import Path

import numpy as np

import condpoint as cp
from condpoint import config

SPACES = Path(__file__).resolve().parent.parent / "scenarios" / "spaces"
REPEAT = 30
# (space file, conditioned variable, targets): the grid-table workload's nodes
GRIDS = [
    ("gaussian-sum-grid.json", "X", np.linspace(-3.0, 3.0, 81)),
    ("bivariate-05.json", "Z", np.linspace(-2.0, 2.0, 21)),
]


def main() -> None:
    for name, x, targets in GRIDS:
        bundle = config.load_space(SPACES / name)
        space, X, Y = bundle.space, bundle.variables[x], bundle.variables["Y"]
        ys = [float(y) for y in targets]

        def round_s() -> float:
            start = time.perf_counter()
            for y in ys:
                cp.window_estimate(space, X, Y, y)
                cp.conditional_expectation_via_density(space, y)
            return time.perf_counter() - start

        round_s()  # builds the cached marginal pairs
        per_op = sorted(round_s() / len(ys) * 1e6 for _ in range(REPEAT))
        print(f"{name}: best {per_op[0]:.1f} us/op, median {statistics.median(per_op):.1f} us/op "
              f"({len(ys)} targets, best of {REPEAT} rounds)")


if __name__ == "__main__":
    main()
