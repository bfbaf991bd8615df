#!/usr/bin/env python3
"""Compare the artifacts of `condpoint run scenarios/*.json` at a git ref and
in the working tree.

    python3 scripts/artifact_diff.py <git-ref>

The ref's tree is exported with `git archive` into a temporary directory;
each tree then runs its own scenarios with its own source.  For every output
file the script prints how many numbers differ and the largest absolute
difference, or that the text around the numbers differs, or that the file
exists on one side only.  It exits 1 on any difference and 0 when every file
is byte-identical.
"""

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUMBER = re.compile(r"-?(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|Infinity)|NaN")


def run_scenarios(tree: Path, outdir: Path) -> int:
    """Exit code of `condpoint run` over the tree's shipped scenarios."""
    scenarios = sorted(str(p.relative_to(tree)) for p in (tree / "scenarios").glob("*.json"))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-m", "condpoint.cli", "run", *scenarios,
                           "--outdir", str(outdir)],
                          cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode


def number_diff(a: str, b: str) -> tuple[int, float] | None:
    """(count of differing numbers, largest absolute difference) between two
    texts that agree outside their numbers; None when they do not."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    count, largest = 0, 0.0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        if x != y:
            count += 1
            d = abs(float(x) - float(y))
            largest = max(largest, d if not math.isnan(d) else math.inf)
    return count, largest


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "ref"
        base.mkdir()
        archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        outs = {side: Path(tmp) / f"out-{side}" for side in ("ref", "tree")}
        for side, tree in (("ref", base), ("tree", ROOT)):
            print(f"{side}: condpoint run exited {run_scenarios(tree, outs[side])}")
        names = sorted({p.name for out in outs.values() for p in out.glob("*")})
        differ = 0
        for name in names:
            a, b = (outs[side] / name for side in ("ref", "tree"))
            if not (a.exists() and b.exists()):
                note = f"only in the {'working tree' if b.exists() else 'ref'}"
            elif a.read_bytes() == b.read_bytes():
                print(f"{name}: identical")
                continue
            else:
                diff = number_diff(a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8"))
                note = ("text differs outside the numbers" if diff is None
                        else f"{diff[0]} numbers differ, largest |diff| {diff[1]:.3g}")
            differ += 1
            print(f"{name}: {note}")
    print(f"{differ} of {len(names)} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
