#!/usr/bin/env python3
"""Run a command, print its wall time and peak RSS, and exit with its code.

    python3 scripts/run_measured.py <label> <command> [<arg> ...]

The peak RSS is the largest resident set size of the command's process
tree, as getrusage(RUSAGE_CHILDREN) reports it once the command has ended.
The numbers are for reading only: no bound is checked.
"""

import resource
import subprocess
import sys
import time


def main(argv) -> int:
    if len(argv) < 2:
        sys.exit(__doc__)
    label, command = argv[0], argv[1:]
    start = time.perf_counter()
    code = subprocess.run(command).returncode
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{label} wall time: {wall:.2f} s, peak RSS: {rss:.1f} MiB")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
