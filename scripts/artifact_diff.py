#!/usr/bin/env python3
"""Compare the artifacts of `condpoint run scenarios/*.json`, and the outputs
of a fixed list of inline subcommands, at a git ref and in the working tree.

    python3 scripts/artifact_diff.py <git-ref>

The ref's tree is exported with `git archive` into a temporary directory;
each tree then runs its own scenarios and inline commands with its own
source.  An inline command's stdout, stderr and exit code are kept as files
beside the files it writes.  For every output file the script prints how
many numbers differ and the largest absolute difference, or that the text
around the numbers differs, or that the file exists on one side only.  It
exits 1 on any difference and 0 when every file is byte-identical.
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


SPACES = "scenarios/spaces/"
# (label, argv) of each inline command; "{out}" is the output directory.  The
# list covers every subcommand, each optional flag, and errors that exit 1 or 2.
INLINE = [
    ("window-at", ["window", "--space", SPACES + "gaussian-sum-grid.json", "--x", "X",
                   "--y", "Y", "--at", "2.0", "--out", "{out}/inline-window-at.json"]),
    ("compare-self", ["compare", "{out}/inline-window-at.json", "{out}/inline-window-at.json",
                      "--tol", "0"]),
    ("compare-missing", ["compare", "{out}/inline-window-at.json", "nope.json"]),
    ("window-grid", ["window", "--space", SPACES + "bivariate-05.json", "--x", "Z",
                     "--y", "Y", "--grid", "-2:2:9", "--tol", "1e-5"]),
    ("window-one-node", ["window", "--space", SPACES + "bivariate-05.json", "--x", "Z",
                         "--y", "Y", "--grid", "-1:1:1"]),
    ("window-outside", ["window", "--space", SPACES + "bivariate-05.json", "--x", "Z",
                        "--y", "Y", "--at", "50"]),
    # the ends of the y range: the one-sided upper family, degenerate at its
    # second window, and a degenerate symmetric window; each error names it
    ("window-range-low", ["window", "--space", SPACES + "bivariate-05.json", "--x", "Z",
                          "--y", "Y", "--at", "-8"]),
    ("window-range-high", ["window", "--space", SPACES + "bivariate-05.json", "--x", "Z",
                           "--y", "Y", "--at", "7.5"]),
    ("window-sampler", ["window", "--space", SPACES + "gaussian-sum-sampler.json",
                        "--x", "X", "--y", "Y", "--at", "2.0", "--seed", "7"]),
    ("density", ["density", "--joint", SPACES + "bivariate-05.json", "--at", "1.0",
                 "--emit-density", "{out}/inline-density.csv",
                 "--out", "{out}/inline-density.json"]),
    ("density-expect", ["density", "--joint", SPACES + "bivariate-05.json", "--at", "-0.5",
                        "--expect", "z * z"]),
    ("density-expect-unknown", ["density", "--joint", SPACES + "bivariate-05.json",
                                "--at", "1.0", "--expect", "y * 2"]),
    ("density-sampler", ["density", "--joint", SPACES + "gaussian-sum-sampler.json",
                         "--at", "0", "--out", "{out}/inline-density-sampler.json"]),
    ("factorize-atoms", ["factorize", "--space", SPACES + "coin-pair.json",
                         "--g", "sum_given_first", "--y", "first", "--levels", "0,1"]),
    ("factorize-band", ["factorize", "--space", SPACES + "bivariate-05.json", "--g", "Z",
                        "--y", "Y", "--levels", "0,0.5", "--band", "0.05"]),
    # a sampler's streamed `values_on`, joined in row order: X's witnesses at 17 digits
    ("factorize-sampler", ["factorize", "--space", SPACES + "gaussian-sum-sampler.json",
                           "--g", "X", "--y", "Y", "--levels", "0,2", "--band", "1e-4"]),
    ("verify", ["verify", "--space", SPACES + "d8-null.json", "--x", "X",
                "--candidate", "candidate_17_on_null", "--generators", "null-algebra",
                "--out", "{out}/inline-verify.json"]),
    # non-zero residuals of both halves: pins the worst union's residual
    ("verify-dice", ["verify", "--space", SPACES + "dice.json", "--x", "X2",
                     "--candidate", "X", "--generators", "halves"]),
    ("paradox", ["paradox", "--budget", "200000", "--seed", "20260811"]),
    ("paradox-no-control", ["paradox", "--budget", "200000", "--seed", "3",
                            "--no-control", "--tol", "1e-4"]),
    ("paradox-unknown", ["paradox", "--instance", "nope"]),
    ("missing-space", ["verify", "--space", SPACES + "nope.json", "--x", "X",
                       "--candidate", "X", "--generators", "g"]),
]


def _condpoint(tree: Path, argv: list, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-m", "condpoint.cli", *argv],
                          cwd=tree, env=env, **kwargs)


def run_scenarios(tree: Path, outdir: Path) -> int:
    """Exit code of `condpoint run` over the tree's shipped scenarios."""
    scenarios = sorted(str(p.relative_to(tree)) for p in (tree / "scenarios").glob("*.json"))
    return _condpoint(tree, ["run", *scenarios, "--outdir", str(outdir)],
                      stdout=subprocess.DEVNULL).returncode


def run_inline(tree: Path, outdir: Path) -> None:
    """Run every INLINE command, keeping its stdout, stderr and exit code in
    ``outdir`` as inline-<label>.stdout, .stderr and .exit."""
    for label, argv in INLINE:
        done = _condpoint(tree, [a.replace("{out}", str(outdir)) for a in argv],
                          capture_output=True)
        for ext, data in (("stdout", done.stdout), ("stderr", done.stderr),
                          ("exit", f"{done.returncode}\n".encode())):
            (outdir / f"inline-{label}.{ext}").write_bytes(data)


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
            run_inline(tree, outs[side])
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
