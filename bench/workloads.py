"""The four benchmark workloads.

Each workload turns a seed into fixed inputs once per run, then repeats
passes.  A pass is ``setup`` (build the spaces from config; timed as set-up)
followed by ``run_pass`` (the timed phase: the ops, each timed on its own).
``check`` compares the raw op outputs with the independent oracles after
the timed phase, so checking costs no measured time.

Ops call condpoint through module attributes at call time (``cp.window_estimate``,
``cli.main``), never through names bound at import, so the tracer's patches
are seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import condpoint as cp
from condpoint import cli, config, pathology

import oracles
from tracer import OpTimer

PARADOX_SEED = 20260811      # the shipped seed of criterion 08 and the scenario
PARADOX_BUDGET = 20_000_000  # criterion 08's instance size


@dataclass
class Op:
    """One timed op: its label, latency and raw output for the checks."""

    label: str
    seconds: float
    output: object = None
    error: str | None = None


@dataclass
class Check:
    """Outcome of one op against its oracle."""

    label: str
    err: float
    failure: str | None


def _timed(label, fn, *args):
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return Op(label, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    return Op(label, time.perf_counter() - t0, out)


def _errored(ops) -> list[Check]:
    return [Check(op.label, 0.0, op.error) for op in ops if op.error is not None]


# ---------------------------------------------------------------------------
# grid-table: window tables plus density-ratio cross-checks on the 2D joints


class GridTable:
    name = "grid-table"

    def __init__(self, root: Path, seed: int):
        spaces = root / "scenarios" / "spaces"
        self.gauss_path = spaces / "gaussian-sum-grid.json"
        self.bivariate_cfg = json.loads((spaces / "bivariate-05.json").read_text(encoding="utf-8"))
        # joint 0: gaussian-sum 1201^2, 81 nodes on [-3, 3];
        # joints 1-3: bivariate normal 801^2 at rho 0, 0.5, 0.9, 21 nodes on [-2, 2]
        self.rhos = (0.0, 0.5, 0.9)
        nodes = [(0, float(y)) for y in np.linspace(-3.0, 3.0, 81)]
        nodes += [(j, float(y)) for j in (1, 2, 3) for y in np.linspace(-2.0, 2.0, 21)]
        order = np.random.default_rng(seed).permutation(len(nodes))
        self.nodes = [nodes[i] for i in order]
        self.inputs = {"joints": 4, "grid_points": 1201 * 1201 + 3 * 801 * 801,
                       "ops": len(self.nodes)}

    def setup(self):
        joints = [config.load_space(self.gauss_path)]
        for rho in self.rhos:
            cfg = dict(self.bivariate_cfg, name=f"bivariate-{rho:g}",
                       density={"family": "bivariate-normal", "rho": rho})
            joints.append(config.load_space(cfg))
        return [(b.space, b.variables["X" if j == 0 else "Z"], b.variables["Y"])
                for j, b in enumerate(joints)]

    def run_pass(self, joints) -> list[Op]:
        def op(space, X, Y, y):
            trace = cp.window_estimate(space, X, Y, y)
            return trace.value, trace.verdict, cp.conditional_expectation_via_density(space, y)

        return [_timed((j, y), op, *joints[j], y) for j, y in self.nodes]

    def check(self, ops) -> list[Check]:
        out = _errored(ops)
        for op in ops:
            if op.error is not None:
                continue
            j, y = op.label
            if j == 0:
                expected, tol = oracles.posterior_mean(y), oracles.POSTERIOR_TOL
            else:
                expected, tol = oracles.bivariate_mean(self.rhos[j - 1], y), oracles.BIVARIATE_TOL
            window, verdict, ratio = op.output
            err = max(abs(window - expected), abs(ratio - expected))
            failure = None
            if verdict != "Converged":
                failure = f"verdict {verdict}"
            elif not err <= tol:
                failure = f"error {err:.3e} above {tol:g}"
            out.append(Check(op.label, err, failure))
        return out


# ---------------------------------------------------------------------------
# sampler-paradox: criterion 08's 20M-row instance, main and control families


class SamplerParadox:
    name = "sampler-paradox"

    def __init__(self, root: Path, seed: int, sample_seed: int = PARADOX_SEED):
        self.fixture = oracles.paradox_fixture(root)
        self.sample_seed = sample_seed
        # the run seed orders the two reports; the rows depend on sample_seed only
        self.control_first = bool(np.random.default_rng(seed).integers(2))
        self.inputs = {"rows": PARADOX_BUDGET, "sample_seed": sample_seed,
                       "control_first": self.control_first, "ops": 4}

    def setup(self):
        return pathology.ratio_normal_instance(seed=self.sample_seed, budget=PARADOX_BUDGET)

    def run_pass(self, inst) -> list[Op]:
        runs = [("main", inst["families"]), ("control", inst["control_families"])]
        if self.control_first:
            runs.reverse()
        ops = []
        for which, families in runs:
            # the op boundary, one family trace, lies inside borel_kolmogorov
            with OpTimer(pathology, "shrink_trace") as timer:
                try:
                    report = cp.borel_kolmogorov(inst["space"], inst["X"], families,
                                                 inst["schedule"])
                    error = None
                except Exception as exc:
                    report, error = None, f"{type(exc).__name__}: {exc}"
            for fam, seconds in itertools.zip_longest(families, timer.calls, fillvalue=0.0):
                ops.append(Op((which, fam.name), seconds, report, error))
        return ops

    def check(self, ops) -> list[Check]:
        out = _errored(ops)
        gap = self.fixture["gap_second_moment"]
        for op in ops:
            if op.error is not None:
                continue
            which, fam = op.label
            report = op.output
            verdict = report.traces[fam].verdict
            failure = None if verdict == "Converged" else f"verdict {verdict}"
            err = 0.0
            # report-level checks are charged to the report's last family
            if fam == list(report.traces)[-1] and failure is None:
                if which == "main":
                    err = abs(report.discrepancy - gap)
                    if not err <= oracles.PARADOX_GAP_TOL:
                        failure = f"gap error {err:.3e} above {oracles.PARADOX_GAP_TOL:g}"
                    elif not report.discrepancy > oracles.PARADOX_MARGIN * report.combined_tol:
                        failure = "gap within 10x the combined tolerance"
                else:
                    err = report.discrepancy  # two windows of one variable agree
                    if not err <= report.combined_tol:
                        failure = f"control gap {err:.3e} above {report.combined_tol:.3e}"
            out.append(Check(op.label, err, failure))
        return out


# ---------------------------------------------------------------------------
# scenario-run: the user path through configs, tasks and artifact writes


class ScenarioRun:
    name = "scenario-run"

    def __init__(self, root: Path, seed: int, work: Path):
        self.work = work
        self.fixture = oracles.paradox_fixture(root)
        rng = np.random.default_rng(seed)
        scenarios = sorted((root / "scenarios").glob("*.json"))
        self.scenarios = [scenarios[i] for i in rng.permutation(len(scenarios))]
        spaces = root / "scenarios" / "spaces"
        commands = {
            "window": ["window", "--space", str(spaces / "gaussian-sum-grid.json"),
                       "--x", "X", "--y", "Y", "--at", "2.0"],
            "density": ["density", "--joint", str(spaces / "bivariate-05.json"),
                        "--at", "1.0", "--emit-density", "{out}/emitted-density.csv"],
            "verify": ["verify", "--space", str(spaces / "d8-null.json"), "--x", "X",
                       "--candidate", "candidate_17_on_null",
                       "--generators", "null-algebra"],
        }
        self.commands = [(str(k), commands[k]) for k in rng.permutation(sorted(commands))]
        self.reference = None  # artifact bytes of the run's first op
        self.inputs = {"scenarios": len(self.scenarios), "cli_calls": len(self.commands),
                       "ops": 1}

    def setup(self):
        return None

    def run_pass(self, _) -> list[Op]:
        def op():
            outdir = Path(tempfile.mkdtemp(dir=self.work))
            summary = cli.run_paths(self.scenarios, outdir)
            calls = {}
            for key, argv in self.commands:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main([a.replace("{out}", str(outdir)) for a in argv])
                calls[key] = (code, buf.getvalue())
            return outdir, summary, calls

        return [_timed("scenario-pass", op)]

    def check(self, ops) -> list[Check]:
        out = _errored(ops)
        for op in ops:
            if op.error is None:
                outdir, summary, calls = op.output
                try:
                    out.append(self._check_one(op.label, outdir, summary, calls))
                except (KeyError, ValueError) as exc:  # an artifact is missing or malformed
                    out.append(Check(op.label, 0.0, f"{type(exc).__name__}: {exc}"))
                finally:
                    shutil.rmtree(outdir, ignore_errors=True)
        return out

    def _check_one(self, label, outdir, summary, calls) -> Check:
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}
        files.update({f"stdout:{k}": v.encode() for k, (_, v) in calls.items()})
        if self.reference is None:
            self.reference = files
        errs, failures = [], []

        def near(what, value, expected, tol):
            err = abs(float(value) - expected)
            errs.append(err)
            if not err <= tol:
                failures.append(f"{what}: {value!r} vs {expected!r} (tol {tol:g})")

        def load(name):
            return json.loads(files[name])

        if not summary["ok"]:
            failures.append("run summary not ok")
        if files != self.reference:
            failures.append("artifact bytes differ from the first pass")
        bad_codes = {k: code for k, (code, _) in calls.items() if code != 0}
        if bad_codes:
            failures.append(f"cli exit codes {bad_codes}")
        for name, rho in (("gaussian-posterior.json", None), ("bivariate-rho05-window.json", 0.5)):
            doc = load(name)
            for y, v in zip(doc["grid"], doc["values"]):
                if rho is None:
                    near(name, v, oracles.posterior_mean(y), oracles.POSTERIOR_TOL)
                else:
                    near(name, v, oracles.bivariate_mean(rho, y), oracles.BIVARIATE_TOL)
        doc = load("bivariate-rho05-density.json")
        near("density mean", doc["mean"], oracles.bivariate_mean(0.5, doc["y"]),
             oracles.BIVARIATE_TOL)
        doc = load("gaussian-posterior-sampler.json")
        near("sampler window", doc["value"], oracles.posterior_mean(doc["target"]),
             oracles.SAMPLER_SE_MULT * doc["steps"][-1]["se"])
        doc = load("dice-partition.json")
        for cell, exact in zip(doc["cells"], (1.5, 4.5)):
            near("dice cell", cell["value"], exact, oracles.EXACT_TOL)
        doc = load("ratio-normal-paradox.json")
        # criterion 08 pins the gap to 1e-2 at 20M rows (sampler-paradox checks
        # that); at the scenario's 2M rows the report's own combined tolerance
        # is the statistical bound
        near("paradox gap", doc["discrepancy"], self.fixture["gap_second_moment"],
             doc["combined_tol"])
        if not doc["discrepancy"] > oracles.PARADOX_MARGIN * doc["combined_tol"]:
            failures.append("paradox gap within 10x the combined tolerance")
        near("paradox control gap", doc["control"]["discrepancy"], 0.0,
             doc["control"]["combined_tol"])
        window = load("stdout:window")
        near("cli window", window["value"], oracles.posterior_mean(2.0), oracles.POSTERIOR_TOL)
        if window["verdict"] != "Converged":
            failures.append(f"cli window verdict {window['verdict']}")
        near("cli density", load("stdout:density")["mean"], oracles.bivariate_mean(0.5, 1.0),
             oracles.BIVARIATE_TOL)
        if "emitted-density.csv" not in files:
            failures.append("density --emit-density wrote nothing")
        if not load("stdout:verify")["passed"]:
            failures.append("cli verify did not pass")
        return Check(label, max(errs), "; ".join(failures) or None)


# ---------------------------------------------------------------------------
# atoms-verify: the pure-Python discrete path on a 3d6 space


class AtomsVerify:
    name = "atoms-verify"

    N_CELLS = 8
    N_PARTITIONS = 100

    def __init__(self, root: Path, seed: int):
        rng = np.random.default_rng(seed)
        self.atoms = list(itertools.product(range(1, 7), repeat=3))
        n = len(self.atoms)
        self.parts = []
        for _ in range(self.N_PARTITIONS):
            labels = rng.integers(0, self.N_CELLS, size=n)
            labels[rng.permutation(n)[:self.N_CELLS]] = np.arange(self.N_CELLS)
            labels = [int(c) for c in labels]
            groups = [[a for a, c in zip(self.atoms, labels) if c == k]
                      for k in range(self.N_CELLS)]
            event = [a for a, keep in zip(self.atoms, rng.random(n) < 0.5) if keep]
            self.parts.append({
                "groups": groups,
                "label_of": {a: float(c) for a, c in zip(self.atoms, labels)},
                "event": event,
                "means": [float(m) for m in oracles.cell_means(self.atoms, labels, self.N_CELLS)],
                "event_prob": len(event) / n,
            })
        self.inputs = {"atoms": n, "cells": self.N_CELLS, "ops": self.N_PARTITIONS}

    def setup(self):
        space = config.build_space({
            "kind": "discrete", "name": "3d6",
            "atoms": [[list(a), 1.0 / len(self.atoms)] for a in self.atoms]})
        X = config.build_variable("sum", {"expr": "omega[0] + omega[1] + omega[2]"},
                                  discrete=True)
        return space, X

    def run_pass(self, state) -> list[Op]:
        space, X = state
        names = [f"c{k}" for k in range(self.N_CELLS)]

        def op(part):
            partition = cp.Partition.from_atom_groups(space, part["groups"], names)
            pce = cp.partition_cond_exp(space, X, partition)
            report = cp.verify_cond_exp(space, X, pce.rv, partition.cells)
            cell = cp.RandomVariable("cell", part["label_of"].__getitem__)
            fac = cp.factorize(space, pce.rv, cell, range(self.N_CELLS))
            A = cp.Event.from_atoms(part["event"], name="A")
            tp = cp.total_probability(space, A, partition)
            return pce.values, pce.mean(), report, fac, tp

        return [_timed(i, op, part) for i, part in enumerate(self.parts)]

    def check(self, ops) -> list[Check]:
        out = _errored(ops)
        tol = oracles.EXACT_TOL
        for op in ops:
            if op.error is not None:
                continue
            part = self.parts[op.label]
            values, mean, report, fac, tp = op.output
            errs = [abs(float(v) - m) for v, m in zip(values, part["means"])]
            errs.append(abs(mean - 10.5))
            errs.append(report.max_residual("identity"))
            errs.append(abs(tp - part["event_prob"]))
            failures = []
            if fac.verdict != "Factored":
                failures.append(f"factorize verdict {fac.verdict}")
            else:
                errs.extend(abs(fac.table[float(k)] - m) for k, m in enumerate(part["means"]))
            if not report.passed:
                failures.append("verify_cond_exp did not pass")
            if not max(errs) <= tol:
                failures.append(f"error {max(errs):.3e} above {tol:g}")
            out.append(Check(op.label, max(errs), "; ".join(failures) or None))
        return out


WORKLOADS = {w.name: w for w in (GridTable, SamplerParadox, ScenarioRun, AtomsVerify)}
