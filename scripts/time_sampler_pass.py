#!/usr/bin/env python3
"""Time one streamed pass of a fresh sampler: ``std`` of its last column.

    PYTHONPATH=src python3 scripts/time_sampler_pass.py

Each repeat builds a fresh ROWS-row FAMILY sampler (a new seed each time, so
nothing is memoised) and times ``condpoint.spaces.std`` of ``y``, which
draws every row once and keeps none.  Prints each time in seconds, then the
median and the range.  Run it with another checkout's ``src`` on
``PYTHONPATH`` to compare two trees on the same machine.
"""

import statistics
import time

import condpoint as cp
from condpoint import spaces

ROWS = 20_000_000
REPEAT = 5
FAMILY = "standard-normal-pair"


def main() -> None:
    y = cp.coordinate("y")
    times = []
    for seed in range(REPEAT):
        space = cp.Sampler(FAMILY, seed=seed, budget=ROWS)
        start = time.perf_counter()
        spaces.std(space, y)
        times.append(time.perf_counter() - start)
        print(f"seed {seed}: {times[-1]:.3f} s")
    print(f"median {statistics.median(times):.3f} s, range {min(times):.3f}-{max(times):.3f} s "
          f"({REPEAT} fresh {ROWS}-row {FAMILY} samplers)")


if __name__ == "__main__":
    main()
