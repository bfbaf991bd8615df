"""Outside-in layer tracer for condpoint.

The tracer wraps public functions of the package from the benchmark's own
files; the program is not modified.  Each wrapped call records a span
(name, start, end, parent).  A function is replaced at every place it can
be looked up: on its defining module or class, and in every condpoint
module that imported the same object by name (``from .spaces import std``
binds ``condpoint.window.std``), including the package namespace.

Spans are kept in memory and summarised per name as ``calls``, ``total_s``
(outermost calls only, so recursion is not counted twice) and ``self_s``
(duration minus the time covered by direct child spans).  Counters are
taken from arguments and return values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter, defaultdict

# (module, attribute path) of every wrapped function, grouped by layer.
# Class methods are patched on the class; the span name is
# "<module>.<attribute path>" with the package prefix dropped.
TARGETS = {
    "config": ["build_space", "build_variable", "load_space", "load_scenario",
               "expression_variable", "SpaceBundle.partition",
               "SpaceBundle.generator_events"],
    "spaces": ["probability", "expectation", "indicator_moment",
               "cond_expectation_event", "variance", "std", "pushforward",
               "union_events", "complement_within", "Event.intersect",
               "Sampler.columns", "Sampler.substream",
               *[f"{cls}.{meth}"
                 for cls in ("DiscreteAtoms", "DensityGrid1D", "DensityGrid2D", "Sampler")
                 for meth in ("values_of", "indicator", "moment", "cond")]],
    "quadrature": ["integrate", "cumulative", "clip_integral", "interp_at",
                   "richardson_limit", "loglog_slope"],
    "window": ["shrink_trace", "window_estimate", "evaluate_on_grid",
               "convergence_order"],
    "density": ["marginal", "conditional_density",
                "conditional_expectation_via_density"],
    "partition": ["Partition.__init__", "partition_cond_exp", "verify_cond_exp",
                  "total_probability", "bayes_discrete"],
    "factorization": ["factorize", "pointwise_from_any_omega"],
    "pathology": ["borel_kolmogorov", "too_coarse_demo", "too_fine_demo",
                  "ratio_normal_instance"],
    "serialize": ["to_json", "write_json", "write_csv"],
    "cli": ["run", "run_paths", "main", "compare"],
}


def _span_name(module: str, path: str) -> str:
    return f"{module}.{path[:-len('.__init__')] if path.endswith('.__init__') else path}"


class Tracer:
    """Span recorder that patches condpoint functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent index, outermost)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list = []
        self._drawn: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._hooks = {
            "spaces.Sampler.columns": self._count_rows,
            "window.shrink_trace": self._count_steps,
            "partition.verify_cond_exp": self._count_unions,
            "serialize.write_json": self._count_bytes,
            "serialize.write_csv": self._count_bytes,
        }

    # -- counters read at the boundaries ---------------------------------

    def _count_rows(self, args, result):
        # distinct column dicts per sampler: a dict is drawn once and then
        # served from the sampler's cache
        seen = self._drawn.setdefault(args[0], set())
        if id(result) not in seen:
            seen.add(id(result))
            self.counts["spaces.Sampler.rows_drawn"] += len(next(iter(result.values())))

    def _count_steps(self, args, result):
        self.counts["window.steps"] += len(result.steps)

    def _count_unions(self, args, result):
        self.counts["partition.unions_checked"] += sum(
            1 for e in result.entries if e.kind == "identity" and e.label != "empty")

    def _count_bytes(self, args, result):
        self.counts["serialize.bytes_written"] += result.stat().st_size

    def _count_cache_growth(self, space, before):
        cache = getattr(space, "_cache", None)
        if cache is not None and len(cache) > before:
            self.counts["spaces.values_of.misses"] += 1

    # -- patching --------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, active = self.spans, self._stack, self._active
        hook = self._hooks.get(name)
        values_of = name.endswith(".values_of")
        clock = time.perf_counter

        def traced(*args, **kwargs):
            before = len(getattr(args[0], "_cache", ())) if values_of else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = active[name_id] == 0
            active[name_id] += 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name_id] -= 1
                spans[idx] = (name_id, t0, t1, parent, outermost)
            if hook is not None:
                hook(args, result)
            if values_of:
                self._count_cache_growth(args[0], before)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Patch every target at its definition and at every import site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if n == "condpoint" or n.startswith("condpoint.")]
        for short, paths in TARGETS.items():
            mod = importlib.import_module(f"condpoint.{short}")
            for path in paths:
                owner_path, _, attr = path.rpartition(".")
                owner = mod
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                wrapper = self._wrap(_span_name(short, path), original)
                self._patch(owner, attr, original, wrapper)
                if not isinstance(owner, type):
                    for other in modules:
                        if other is not owner and other.__dict__.get(attr) is original:
                            self._patch(other, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summaries -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total_s (outermost spans) and self_s."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name_id, t0, t1, _, outermost) in enumerate(self.spans):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[i]
            if outermost:
                row["total_s"] += t1 - t0
        return dict(out)

    def span_records(self) -> dict:
        """Compact span dump: a name table plus [name, start, end, parent] rows."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, round(t0 - origin, 7), round(t1 - origin, 7), p]
                      for n, t0, t1, p, _ in self.spans],
        }


class OpTimer:
    """Times each call of one function at one lookup site.

    Used where an op boundary lies inside a library call, e.g. the family
    traces inside ``borel_kolmogorov``.  It adds one Python call per op.
    """

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.original = getattr(owner, attr)
        self.calls: list[float] = []  # seconds per call

    def __enter__(self):
        original, calls, clock = self.original, self.calls, time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            result = original(*args, **kwargs)
            calls.append(clock() - t0)
            return result

        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)
