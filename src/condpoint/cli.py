"""Command line entry point and scenario runner.

Subcommands mirror the library: window, density, factorize, paradox,
verify, plus `run` for scenario files and `compare` for diffing two trace
artifacts on a shared grid.  Runs are deterministic for a fixed seed; all
artifacts go through the fixed-format serializer, so identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import density as density_mod
from . import pathology
from .config import (SCHEMA_VERSION, Scenario, _document, _file_name, expression_variable,
                     load_scenario, param_value)
from .errors import CondpointError, ConfigError, GridMismatch, TaskError
from .factorization import factorize
from .partition import partition_cond_exp, verify_cond_exp
from .serialize import to_json, write_csv, write_json
from .spaces import DensityGrid2D, _evaluate, expectation
from .window import CONVERGED, DEFAULT_TOL, WindowStep, evaluate_on_grid, window_estimate

# ---------------------------------------------------------------------------
# Scenario tasks: each returns (ok, doc, csv) with csv (header, rows) or None


def _task_partition(scn: Scenario):
    bundle = scn.bundle
    X = bundle.variable(scn.param("x"))
    part = bundle.partition(scn.param("partition"))
    pce = partition_cond_exp(bundle.space, X, part)
    doc = pce.to_json_dict()
    doc["expectation"] = expectation(bundle.space, X).value
    return True, doc, None


def _task_window(scn: Scenario):
    bundle = scn.bundle
    X = bundle.variable(scn.param("x"))
    Y = bundle.variable(scn.param("y"))
    schedule = scn.param("schedule", None)
    at = scn.param("at", None)
    if at is not None:
        trace = window_estimate(bundle.space, X, Y, at, schedule=schedule, tol=scn.tol)
        return (trace.verdict == CONVERGED, trace.to_json_dict(),
                ([f.name for f in fields(WindowStep)], map(astuple, trace.steps)))
    table = evaluate_on_grid(bundle.space, X, Y, np.linspace(*scn.param("grid")),
                             schedule=schedule, tol=scn.tol)
    doc = table.to_json_dict()
    rows = list(zip(doc["grid"], doc["values"], doc["verdicts"]))
    ok = all(v == CONVERGED for v in table.verdicts)
    return ok, doc, (["y", "value", "verdict"], rows)


def _task_density(scn: Scenario):
    joint = scn.bundle.space
    if not isinstance(joint, DensityGrid2D):
        raise TaskError("density tasks need a grid2d joint space")
    y = scn.param("at")
    cd = density_mod.conditional_density(joint, y)
    doc = {"kind": "conditional_density_summary",
           "y": y, "marginal": cd.marginal_value, "defect": cd.defect,
           "mean": cd.expectation()}
    expect = scn.param("expect", None)
    if expect is not None:
        g = expression_variable("g", expect)
        doc["expect"] = {"expr": expect, "value": cd.expectation(
            lambda z: _evaluate(f"expect {expect!r}", g, {"z": z}, z.shape))}
    return True, doc, (["z", "density"], zip(cd.nodes, cd.values))


def _task_factorize(scn: Scenario):
    bundle = scn.bundle
    g = bundle.variable(scn.param("g"))
    Y = bundle.variable(scn.param("y"))
    res = factorize(bundle.space, g, Y, scn.param("levels"), band=scn.param("band", None))
    return res.verdict == "Factored", res.to_json_dict(), None


def _task_paradox(scn: Scenario):
    name = scn.param("instance", "ratio-normal")
    if name != "ratio-normal":
        raise TaskError(f"unknown paradox instance {name!r}")
    given = {"seed": scn.seed, "budget": scn.param("budget", None)}
    inst = pathology.ratio_normal_instance(**{k: v for k, v in given.items() if v is not None})
    # the main report, then the control one from the instance's "control_" keys
    prefixes = ("", "control_") if scn.param("control", True) else ("",)
    groups = [(inst[pre + "families"], inst[pre + "description"]) for pre in prefixes]
    reports = pathology.paradox_reports(inst["space"], inst["X"], groups, inst["schedule"],
                                        tol=scn.tol)
    doc, *control = (r.to_json_dict() for r in reports)
    if control:
        doc["control"] = control[0]
    return all(t.verdict == CONVERGED for r in reports for t in r.traces.values()), doc, None


def _task_verify(scn: Scenario):
    bundle = scn.bundle
    X = bundle.variable(scn.param("x"))
    candidate = bundle.variable(scn.param("candidate"))
    gens = bundle.generator_events(scn.param("generators"))
    report = verify_cond_exp(bundle.space, X, candidate, gens)
    return report.passed, report.to_json_dict(), None


# Each task's function and the params it reads; any other param is a ConfigError
_TASKS = {
    "partition": (_task_partition, ("partition", "x")),
    "window": (_task_window, ("at", "grid", "schedule", "x", "y")),
    "density": (_task_density, ("at", "expect")),
    "factorize": (_task_factorize, ("band", "g", "levels", "y")),
    "paradox": (_task_paradox, ("budget", "control", "instance")),
    "verify": (_task_verify, ("candidate", "generators", "x")),
}


def task_entry(name: str) -> tuple:
    """(function, params) of the task named ``name``; ConfigError if there is none."""
    if name not in _TASKS:
        raise ConfigError(f"unknown task {name!r}; expected one of {tuple(_TASKS)}")
    return _TASKS[name]


def _compute(scenario: Scenario):
    """(summary entry, doc, csv) of one scenario; doc and csv are None on error."""
    entry = {"name": scenario.name, "task": scenario.task}
    try:
        ok, doc, csv = task_entry(scenario.task)[0](scenario)
    except CondpointError as exc:
        entry.update(ok=False, error=f"{type(exc).__name__}: {exc}", artifacts=[])
        return entry, None, None
    doc["scenario"] = scenario.name
    doc.setdefault("schema_version", SCHEMA_VERSION)
    entry["ok"] = ok
    return entry, doc, csv


def run(scenario: Scenario, outdir: Path) -> dict:
    """Run one scenario and write its artifacts; returns a summary entry.

    The artifacts' base name, ``out_base`` or else the scenario name, must be
    a plain file name, so nothing is written outside ``outdir``; ConfigError
    before anything runs otherwise, for a scenario built or edited in code too.
    """
    base = _file_name(scenario.out_base or scenario.name,
                      "scenario out" if scenario.out_base else "scenario name")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    entry, doc, csv = _compute(scenario)
    if doc is not None:
        paths = [write_json(outdir / f"{base}.json", doc)]
        if csv is not None:
            paths.append(write_csv(outdir / f"{base}.csv", *csv))
        entry["artifacts"] = sorted(p.name for p in paths)
    return entry


def _run_path(path: Path, outdir: Path) -> dict:
    try:
        scenario = load_scenario(path)
    except CondpointError as exc:
        return {"name": Path(path).stem, "task": None, "ok": False,
                "error": f"{type(exc).__name__}: {exc}", "artifacts": []}
    return run(scenario, outdir)


def run_paths(paths, outdir: Path) -> dict:
    entries = [_run_path(p, outdir) for p in paths]
    entries.sort(key=lambda e: e["name"])
    summary = {"kind": "run_summary", "schema_version": SCHEMA_VERSION,
               "ok": all(e["ok"] for e in entries), "scenarios": entries}
    if entries:
        write_json(Path(outdir) / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# Trace comparison


def _series(doc: dict, family: str | None = None):
    """(grid, values) of an artifact's trace; GridMismatch for a series that
    cannot be read, or whose values and grid differ in length."""
    try:
        if family is not None:
            families = doc.get("families") or {}
            if family not in families:
                raise GridMismatch(f"no family {family!r} in this artifact")
            doc = families[family]
        kind = doc.get("kind")
        if kind == "window_trace":
            grid = [s["eps"] for s in doc["steps"]]
            values = [s["estimate"] for s in doc["steps"]]
        elif "grid" in doc and "values" in doc:
            grid, values = list(doc["grid"]), list(doc["values"])
        else:
            raise GridMismatch(f"artifact kind {kind!r} carries no comparable series")
        values = [None if v is None else float(v) for v in values]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GridMismatch(f"artifact series cannot be read: {exc!r}") from exc
    if len(grid) != len(values):
        raise GridMismatch(f"artifact series has {len(values)} values "
                           f"on {len(grid)} grid nodes")
    return grid, values


def compare(trace_a: dict, trace_b: dict, tol: float,
            family_a: str | None = None, family_b: str | None = None) -> dict:
    """Per-node absolute differences of two traces on one shared grid."""
    grid_a, vals_a = _series(trace_a, family_a)
    grid_b, vals_b = _series(trace_b, family_b)
    if len(grid_a) != len(grid_b) or any(a != b for a, b in zip(grid_a, grid_b)):
        raise GridMismatch("traces do not share a grid")
    diffs = []
    for a, b in zip(vals_a, vals_b):
        if a is None or b is None:
            diffs.append(float("nan"))
        else:
            diffs.append(abs(float(a) - float(b)))
    finite = [d for d in diffs if d == d]
    max_diff = max(finite) if finite else float("nan")
    passed = bool(finite) and len(finite) == len(diffs) and max_diff <= tol
    return {"kind": "compare", "schema_version": SCHEMA_VERSION,
            "grid": list(grid_a), "diffs": diffs,
            "max_diff": max_diff, "tol": float(tol), "passed": passed}


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p):
    p.add_argument("--seed", type=int, default=None, help="override the space seed")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", type=Path, default=None, help="output JSON path")


# Each inline subcommand flag's dest is its task param, and its type gives the
# value the scenario schema expects; optional params stay absent when unset.
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="condpoint")
    sub = parser.add_subparsers(dest="command", required=True)
    unset = argparse.SUPPRESS

    p = sub.add_parser("window", help="shrinking-window conditional expectation")
    p.add_argument("--space", required=True, type=Path)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--at", type=float, default=unset)
    group.add_argument("--grid", default=unset, help="a:b:n",
                       type=lambda text: param_value("grid", text.split(":"), "--grid"))
    _add_common(p)

    p = sub.add_parser("density", help="conditional density from a 2D joint")
    p.add_argument("--joint", dest="space", required=True, type=Path)
    p.add_argument("--at", required=True, type=float)
    p.add_argument("--emit-density", type=Path, default=None)
    p.add_argument("--expect", default=unset, help="expression in z")
    _add_common(p)

    p = sub.add_parser("factorize", help="factor a variable through another")
    p.add_argument("--space", required=True, type=Path)
    p.add_argument("--g", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--levels", required=True, help="comma-separated level values",
                   type=lambda text: param_value("levels", text.split(","), "--levels"))
    p.add_argument("--band", type=float, default=unset)
    _add_common(p)

    p = sub.add_parser("paradox", help="two-family conditioning paradox")
    p.add_argument("--instance", default="ratio-normal")
    p.add_argument("--budget", type=int, default=unset)
    p.add_argument("--no-control", dest="control", action="store_false")
    _add_common(p)

    p = sub.add_parser("verify", help="check a conditional-expectation candidate")
    p.add_argument("--space", required=True, type=Path)
    p.add_argument("--x", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--generators", required=True)
    _add_common(p)

    p = sub.add_parser("run", help="run scenario files")
    p.add_argument("scenarios", nargs="*", type=Path)
    p.add_argument("--outdir", type=Path, default=Path("out"))

    p = sub.add_parser("compare", help="diff two trace artifacts")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--family-a", default=None)
    p.add_argument("--family-b", default=None)
    p.add_argument("--out", type=Path, default=None)
    return parser


def _emit_result(doc: dict, out: Path | None) -> None:
    if out is not None:
        write_json(out, doc)
    sys.stdout.write(to_json(doc))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # let `--grid -2:2:9` through argparse despite the leading dash
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--grid" and ":" in argv[i]:
            argv[i - 1:i + 1] = [f"--grid={argv[i]}"]
    try:  # a --grid or --levels that does not convert is a ConfigError
        return _dispatch(_build_parser().parse_args(argv))
    except CondpointError as exc:
        sys.stderr.write(to_json({"error": type(exc).__name__, "message": str(exc)}))
        return 2


# Parsed fields of an inline subcommand that are not task params
_NOT_PARAMS = ("command", "space", "seed", "tol", "out", "emit_density")


def _dispatch(args) -> int:
    if args.command == "run":
        summary = run_paths(args.scenarios, args.outdir)
        sys.stdout.write(to_json(summary))
        return 0 if summary["ok"] else 1

    if args.command == "compare":
        (a, _), (b, _) = (_document(path, "artifact") for path in (args.a, args.b))
        doc = compare(a, b, args.tol, args.family_a, args.family_b)
        _emit_result(doc, args.out)
        return 0 if doc["passed"] else 1

    # an inline subcommand is the scenario document of its flags, named after
    # the stem of --out, which is checked here so that an error names --out
    scn = load_scenario({
        "schema_version": SCHEMA_VERSION, "task": args.command,
        "name": args.command if args.out is None else _file_name(args.out.stem, "--out stem"),
        "space": getattr(args, "space", None),
        "params": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS},
        "seed": args.seed, "tol": args.tol})
    entry, doc, csv = _compute(scn)
    if doc is None:
        _emit_result(entry, args.out)
        sys.stderr.write(to_json({"error": entry["error"]}))
        return 1
    if getattr(args, "emit_density", None) is not None:
        write_csv(args.emit_density, *csv)
    _emit_result(doc, args.out)
    return 0 if entry["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
