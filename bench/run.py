"""condpoint benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload grid-table --seed 1 --seconds 20 --trace 0

runs one workload in this process and prints its metrics, then one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` every workload runs in a fresh process of its own, one after
the other.  ``--trace 0`` reports the end-to-end metrics with the tracer
off; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced passes plus the tracing overhead.  The exit
code is nonzero when any op fails its oracle check.

Memory figures come from the process itself (``ru_maxrss`` and
``/proc/self/statm``); nothing on the machine is reconfigured to measure.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 20260811
DEFAULT_SECONDS = 40
WORKLOAD_NAMES = ("grid-table", "sampler-paradox", "scenario-run", "atoms-verify")

# name -> unit of the end-to-end metrics gated in BENCHMARK.json
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
# printed on every run, not gated (see bench/README.md)
REPORTED = {"op_p50_ms": "ms", "op_p90_ms": "ms", "rss_growth_mb": "MiB",
            "max_abs_err": "abs", "failed_frac": "ratio"}
# per-layer metrics of the traced run: (metric, unit, how to read the trace)
PER_LAYER = [
    ("spaces.std.calls", "count", ("spaces.std", "calls")),
    ("spaces.std.total_s", "s", ("spaces.std", "total_s")),
    ("spaces.DensityGrid2D.moment.calls", "count", ("spaces.DensityGrid2D.moment", "calls")),
    ("spaces.DensityGrid2D.moment.self_s", "s", ("spaces.DensityGrid2D.moment", "self_s")),
    ("spaces.values_of.calls", "count", ("*.values_of", "calls")),
    ("spaces.values_of.self_s", "s", ("*.values_of", "self_s")),
    ("spaces.values_of.misses", "count", "spaces.values_of.misses"),
    ("quadrature.clip_integral.calls", "count", ("quadrature.clip_integral", "calls")),
    ("quadrature.clip_integral.self_s", "s", ("quadrature.clip_integral", "self_s")),
    ("quadrature.cumulative.calls", "count", ("quadrature.cumulative", "calls")),
    ("quadrature.cumulative.self_s", "s", ("quadrature.cumulative", "self_s")),
    ("window.window_estimate.total_s", "s", ("window.window_estimate", "total_s")),
    ("window.shrink_trace.self_s", "s", ("window.shrink_trace", "self_s")),
    ("window.steps", "count", "window.steps"),
    ("density.conditional_density.calls", "count", ("density.conditional_density", "calls")),
    ("density.conditional_density.self_s", "s", ("density.conditional_density", "self_s")),
    ("spaces.Sampler.columns.total_s", "s", ("spaces.Sampler.columns", "total_s")),
    ("spaces.Sampler.rows_drawn", "count", "spaces.Sampler.rows_drawn"),
    ("spaces.Sampler.indicator.self_s", "s", ("spaces.Sampler.indicator", "self_s")),
    ("spaces.Sampler.cond.total_s", "s", ("spaces.Sampler.cond", "total_s")),
    ("spaces.Sampler.cond.self_s", "s", ("spaces.Sampler.cond", "self_s")),
    ("pathology.borel_kolmogorov.total_s", "s", ("pathology.borel_kolmogorov", "total_s")),
    ("pathology.borel_kolmogorov.self_s", "s", ("pathology.borel_kolmogorov", "self_s")),
    ("spaces.DiscreteAtoms.indicator.calls", "count", ("spaces.DiscreteAtoms.indicator", "calls")),
    ("spaces.DiscreteAtoms.indicator.self_s", "s", ("spaces.DiscreteAtoms.indicator", "self_s")),
    ("partition.Partition.self_s", "s", ("partition.Partition", "self_s")),
    ("partition.verify_cond_exp.self_s", "s", ("partition.verify_cond_exp", "self_s")),
    ("partition.unions_checked", "count", "partition.unions_checked"),
    ("factorization.factorize.self_s", "s", ("factorization.factorize", "self_s")),
    ("config.build_space.self_s", "s", ("config.build_space", "self_s")),
    ("serialize.write_json.self_s", "s", ("serialize.write_json", "self_s")),
    ("serialize.write_csv.self_s", "s", ("serialize.write_csv", "self_s")),
    ("serialize.bytes_written", "count", "serialize.bytes_written"),
    ("cli.run.self_s", "s", ("cli.run", "self_s")),
    ("trace.wall_s", "s", None),
    ("trace.overhead_s", "s", None),
]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=None, choices=WORKLOAD_NAMES,
                   help="one workload; default: all, one process each")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="measure passes until this much time has gone by (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sample-seed", type=int, default=None,
                   help="sampler-paradox row seed (default: the shipped 20260811)")
    return p.parse_args(argv)


def _import_condpoint():
    """Import the package from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    try:
        import condpoint
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import condpoint from {ROOT / 'src'}: {exc}\n")
        sys.exit(2)
    if Path(condpoint.__file__).resolve().parent.parent != ROOT / "src":
        sys.stderr.write(f"bench: condpoint imported from {condpoint.__file__}, "
                         f"not from {ROOT / 'src'}\n")
        sys.exit(2)


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quantile(values, q):
    """Linear-interpolated quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _make_workload(name, args):
    import workloads

    if name == "sampler-paradox":
        sample_seed = workloads.PARADOX_SEED if args.sample_seed is None else args.sample_seed
        return workloads.SamplerParadox(ROOT, args.seed, sample_seed)
    if name == "scenario-run":
        return workloads.ScenarioRun(ROOT, args.seed, OUT / "tmp")
    return workloads.WORKLOADS[name](ROOT, args.seed)


def _import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    probe = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
             "import condpoint, condpoint.cli, condpoint.config; "
             "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", probe, str(ROOT / "src")],
                          stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return float(proc.stdout)


def _timed_passes(passes) -> list:
    """Untraced passes that enter the timing medians: the first pass of a
    process runs cold, so it is a warm-up whenever two more are left."""
    untraced = [p for p in passes if not p["traced"]]
    return untraced[1:] if len(untraced) >= 3 else untraced


def run_workload(args) -> int:
    import tempfile

    _import_condpoint()
    import workloads  # noqa: F401  (loads condpoint.cli and .config before the clock stops)
    from tracer import Tracer

    import_s = [time.perf_counter() - T_START]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT / "tmp")  # the CLI's own temp dirs stay in the checkout
    wl = _make_workload(args.workload, args)

    passes = []
    t_loop = time.perf_counter()
    min_passes = 2 if args.trace else 1
    while True:
        t_pass = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            state = wl.setup()
            build_s = time.perf_counter() - t0
            rss0 = _rss_mb()
            t0 = time.perf_counter()
            ops = wl.run_pass(state)
            wall_s = time.perf_counter() - t0
            rss1 = _rss_mb()
        finally:
            if tracer:
                tracer.uninstall()
        del state
        checks = wl.check(ops)
        record = {"traced": traced, "build_s": build_s, "wall_s": wall_s,
                  "rss_growth_mb": rss1 - rss0, "checks": checks,
                  "latencies": [op.seconds for op in ops]}
        if tracer:
            # summarise now and keep raw spans of the first traced pass only
            record["summary"], record["counts"] = tracer.summary(), dict(tracer.counts)
            if not any(p["traced"] for p in passes):
                record["spans"] = tracer.span_records()
        passes.append(record)
        del ops, tracer
        gc.collect()
        if not args.trace:
            # one import per pass, so the set-up median spans the whole run
            import_s.append(_import_seconds())
        # stop before a pass that would end past the measuring time
        now = time.perf_counter()
        if len(passes) >= min_passes and now - t_loop + (now - t_pass) > args.seconds:
            break
    return _report(args, wl, import_s, passes)


def _report(args, wl, import_s, passes) -> int:
    untraced = [p for p in passes if not p["traced"]]
    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if c.failure is not None]
    attempted = len(checks)
    ops_per_pass = len(passes[0]["latencies"])

    print(f"workload {wl.name}  seed {args.seed}  inputs {json.dumps(wl.inputs)}")
    walls = " ".join(f"{p['wall_s']:.3f}" for p in passes)
    print(f"  passes {len(passes)} ({len(untraced)} untraced), ops/pass {ops_per_pass}, "
          f"pass wall_s {walls}")
    for c in failed[:10]:
        print(f"  FAILED op {c.label}: {c.failure}")
    if len(failed) > 10:
        print(f"  ... {len(failed) - 10} more failed ops")

    if args.trace:
        metrics = _per_layer(args, wl, passes)
    else:
        timed = _timed_passes(passes)
        lat_ms = [x * 1e3 for p in timed for x in p["latencies"]]
        walls = [p["wall_s"] for p in timed]
        values = {
            "setup_s": statistics.median(import_s)
                       + statistics.median(p["build_s"] for p in timed),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": _peak_rss_mb(),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        extra = {"op_p50_ms": _quantile(lat_ms, 0.5)}
        if ops_per_pass >= 100:  # at least 10 samples beyond the p90 in every pass
            extra["op_p90_ms"] = _quantile(lat_ms, 0.9)
        extra.update({
            "rss_growth_mb": statistics.median(p["rss_growth_mb"] for p in timed),
            "max_abs_err": max((c.err for c in checks), default=0.0),
            "failed_frac": len(failed) / attempted,
        })
        notes = {
            "setup_s": f"median of {len(import_s)} imports + median of {len(timed)} set-ups",
            "wall_s": f"median of {len(walls)} passes, range {min(walls):.4g}-{max(walls):.4g}",
            "op_p50_ms": f"n={len(lat_ms)} ops, {ops_per_pass} per pass",
            "op_p90_ms": f"n={len(lat_ms)} ops",
            "failed_frac": f"{len(failed)} of {attempted} attempted",
        }
        for k, v in {**values, **extra}.items():
            unit = END_TO_END.get(k) or REPORTED[k]
            note = f"  ({notes[k]})" if k in notes else ""
            print(f"  {k:<14} {v:.6g} {unit}{note}")

    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


def _per_layer(args, wl, passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    summaries = [(p["summary"], p["counts"]) for p in traced]

    def read(source):
        vals = []
        for summary, counts in summaries:
            if isinstance(source, str):
                vals.append(counts.get(source, 0))
            else:
                name, field = source
                rows = [r for n, r in summary.items()
                        if n == name or (name.startswith("*") and n.endswith(name[1:]))]
                vals.append(sum(r[field] for r in rows))
        return statistics.mean(vals)

    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics = {}
    for name, unit, source in PER_LAYER:
        if name == "trace.wall_s":
            value = traced_wall
        elif name == "trace.overhead_s":
            # the first pass of a process runs cold; leave it out when another is left
            warm = untraced[1:] or untraced
            value = traced_wall - statistics.median(p["wall_s"] for p in warm)
        else:
            value = read(source)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<40} {value if unit == 'count' else f'{value:.6g}'} {unit}")

    OUT.mkdir(parents=True, exist_ok=True)
    dump = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    dump.write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "inputs": wl.inputs,
        "traced_passes": len(traced),
        "per_pass": [{"summary": s, "counts": dict(c)} for s, c in summaries],
        "spans_of_first_traced_pass": traced[0]["spans"],
    }), encoding="utf-8")
    print(f"  spans written to {dump.relative_to(ROOT)}")
    return metrics


def run_all(args) -> int:
    """Every workload, each in a fresh process; a combined JSON line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.sample_seed is not None:
            cmd += ["--sample-seed", str(args.sample_seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        if lines[:-1]:
            print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            sys.stderr.write(f"bench: workload {name} exited {proc.returncode} without a result\n")
            return proc.returncode or 2
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.workload is not None:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
