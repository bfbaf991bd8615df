"""Declarative JSON configs for spaces, variables, partitions, scenarios.

A space config names a variant and its parameters; analytic densities come
from a small family registry (normal, uniform, mixture, and the shipped 2D
joints) with ranges defaulting to eight standard deviations, which keeps
the truncated tail mass far below the normalization tolerance.  Variables
are coordinate extractors, atom tables, the identity, or arithmetic
expressions over the space's names ('omega' on discrete spaces).
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .partition import Partition
from .spaces import (
    DensityGrid1D,
    DensityGrid2D,
    DiscreteAtoms,
    Event,
    RandomVariable,
    Sampler,
    coordinate,
)

SCHEMA_VERSION = 1

_EXPR_NAMES = {
    "abs": np.abs, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
    "sin": np.sin, "cos": np.cos, "where": np.where, "sign": np.sign,
    "minimum": np.minimum, "maximum": np.maximum,
    "pi": math.pi, "e": math.e,
}


# Syntax a config expression may use.  The bitwise operators combine boolean
# arrays elementwise; anything else, attribute access above all, is rejected
# before the expression is compiled.
_EXPR_NODES = (
    ast.Expression, ast.Name, ast.Load, ast.Constant, ast.BinOp, ast.UnaryOp,
    ast.Compare, ast.Subscript, ast.Call,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.BitAnd, ast.BitOr, ast.BitXor,
    ast.UAdd, ast.USub, ast.Not, ast.Invert,
    ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
)
_EXPR_FUNCS = sorted(k for k, v in _EXPR_NAMES.items() if callable(v))


def _compile_expression(name: str, expr: str):
    """Compile a config expression after checking every node of its syntax tree.

    Allowed: names, numeric constants, arithmetic, unary and comparison
    operators, subscripts of 'omega', and calls to the functions of
    ``_EXPR_NAMES``.  Anything else raises ConfigError.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"variable {name!r}: cannot parse {expr!r}: {exc.msg}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _EXPR_NODES):
            why = f"{type(node).__name__} is not allowed"
        elif isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            why = f"constant {node.value!r} is not a number"
        elif isinstance(node, ast.Call) and not (
                isinstance(node.func, ast.Name) and callable(_EXPR_NAMES.get(node.func.id))):
            why = f"only {_EXPR_FUNCS} may be called"
        elif isinstance(node, ast.Subscript) and not (
                isinstance(node.value, ast.Name) and node.value.id == "omega"):
            why = "only 'omega' may be subscripted"
        else:
            continue
        raise ConfigError(f"variable {name!r}: expression {expr!r} rejected: {why}")
    return compile(tree, f"<variable {name}>", "eval")


def expression_variable(name: str, expr: str, discrete: bool = False) -> RandomVariable:
    """Arithmetic expression over coordinate names, or over 'omega' on atoms."""
    code = _compile_expression(name, expr)

    def fn(arg):
        env = dict(_EXPR_NAMES)
        if discrete:
            env["omega"] = arg
        else:
            # bind only the names the expression reads, so a lazy sampler
            # frame gathers no other column; columns shadow _EXPR_NAMES
            env.update((k, arg[k]) for k in code.co_names if k in arg)
        return eval(code, {"__builtins__": {}}, env)

    return RandomVariable(name, fn)


def _normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def _grid1d_values(density: dict, lo: float, hi: float, n: int) -> np.ndarray:
    x = np.linspace(lo, hi, n)
    family = density.get("family")
    if family == "normal":
        return _normal_pdf(x, float(density.get("mean", 0.0)), float(density.get("var", 1.0)))
    if family == "uniform":
        return np.full(n, 1.0 / (hi - lo))
    if family == "mixture":
        out = np.zeros(n)
        for comp in density["components"]:
            out += float(comp["weight"]) * _normal_pdf(
                x, float(comp.get("mean", 0.0)), float(comp.get("var", 1.0)))
        return out
    raise ConfigError(f"unknown 1D density family {family!r}")


def _default_range_1d(density: dict) -> tuple:
    family = density.get("family")
    if family == "normal":
        m, sd = float(density.get("mean", 0.0)), math.sqrt(float(density.get("var", 1.0)))
        return (m - 8.0 * sd, m + 8.0 * sd)
    if family == "mixture":
        lo = min(float(c.get("mean", 0.0)) - 8.0 * math.sqrt(float(c.get("var", 1.0)))
                 for c in density["components"])
        hi = max(float(c.get("mean", 0.0)) + 8.0 * math.sqrt(float(c.get("var", 1.0)))
                 for c in density["components"])
        return (lo, hi)
    raise ConfigError(f"density family {family!r} needs an explicit range")


def _grid2d_values(density: dict, r0: tuple, r1: tuple, n0: int, n1: int) -> np.ndarray:
    u = np.linspace(r0[0], r0[1], n0)[:, None]
    v = np.linspace(r1[0], r1[1], n1)[None, :]
    family = density.get("family")
    if family == "bivariate-normal":
        rho = float(density.get("rho", 0.0))
        det = 1.0 - rho * rho
        q = (u * u - 2.0 * rho * u * v + v * v) / det
        return np.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))
    if family == "gaussian-sum":
        var_x = float(density.get("var_x", 1.0))
        var_e = float(density.get("var_noise", 1.0))
        return _normal_pdf(u, 0.0, var_x) * _normal_pdf(v - u, 0.0, var_e)
    if family == "uniform":
        area = (r0[1] - r0[0]) * (r1[1] - r1[0])
        return np.full((n0, n1), 1.0 / area)
    raise ConfigError(f"unknown 2D density family {family!r}")


def _default_ranges_2d(density: dict) -> tuple:
    family = density.get("family")
    if family == "bivariate-normal":
        return ((-8.0, 8.0), (-8.0, 8.0))
    if family == "gaussian-sum":
        sd_x = math.sqrt(float(density.get("var_x", 1.0)))
        sd_y = math.sqrt(float(density.get("var_x", 1.0)) + float(density.get("var_noise", 1.0)))
        return ((-8.0 * sd_x, 8.0 * sd_x), (-8.0 * sd_y, 8.0 * sd_y))
    raise ConfigError(f"density family {family!r} needs explicit ranges")


def _coerce_atom(a):
    if isinstance(a, list):
        return tuple(_coerce_atom(v) for v in a)
    return a


def _as_int(value, what: str) -> int:
    """``int(value)``, raising ConfigError that names the field."""
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc


def _as_float(value, what: str) -> float:
    """``float(value)``, raising ConfigError that names the field."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc


def _as_pair(value, what: str, convert) -> tuple:
    """A list of two entries, each through ``convert(entry, what)``."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{what} must be a list of 2 entries, got {value!r}")
    return tuple(convert(v, what) for v in value)


def build_space(cfg: dict):
    kind = cfg.get("kind")
    if kind == "discrete":
        pairs = cfg.get("atoms")
        if not pairs:
            raise ConfigError("discrete space needs an 'atoms' list of [atom, weight]")
        atoms = tuple(_coerce_atom(a) for a, _ in pairs)
        weights = np.array([float(w) for _, w in pairs])
        try:
            return DiscreteAtoms(atoms, weights, name=cfg.get("name", "discrete"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if kind in ("grid1d", "grid2d"):
        density = cfg.get("density") or {}
        quad_tol = _as_float(cfg.get("quad_tol", 1e-8), f"{kind} quad_tol")
        try:
            if kind == "grid1d":
                lo, hi = (_as_pair(cfg["range"], "grid1d range", _as_float) if "range" in cfg
                          else _default_range_1d(density))
                n = _as_int(cfg.get("nodes", 1601), "grid1d nodes")
                values = _grid1d_values(density, lo, hi, n)
                space = DensityGrid1D(cfg.get("axis", "y"), lo, hi, values,
                                      quad_tol=quad_tol, name=cfg.get("name", "grid1d"))
            else:
                ranges = (_as_pair(cfg["ranges"], "grid2d ranges",
                                   lambda r, what: _as_pair(r, what, _as_float))
                          if "ranges" in cfg else _default_ranges_2d(density))
                n0, n1 = _as_pair(cfg.get("nodes", [801, 801]), "grid2d nodes", _as_int)
                axes = _as_pair(cfg.get("axes", ["z", "y"]), "grid2d axes", lambda v, _: v)
                space = DensityGrid2D(axes, ranges,
                                      _grid2d_values(density, ranges[0], ranges[1], n0, n1),
                                      quad_tol=quad_tol, name=cfg.get("name", "grid2d"))
        except ValueError as exc:  # density parameters and the grid's own checks
            raise ConfigError(f"{kind} space: {exc}") from exc
        space.meta["density"] = density
        return space
    if kind == "sampler":
        if "seed" not in cfg:
            raise ConfigError("sampler spaces require an explicit seed")
        return Sampler(cfg.get("family", "standard-normal-pair"),
                       params=dict(cfg.get("params", {})),
                       seed=_as_int(cfg["seed"], "sampler seed"),
                       budget=_as_int(cfg.get("budget", 100_000), "sampler budget"),
                       name=cfg.get("name", "sampler"))
    raise ConfigError(f"unknown space kind {kind!r}")


def build_variable(name: str, spec: dict, discrete: bool) -> RandomVariable:
    if "coord" in spec:
        return coordinate(spec["coord"])
    if spec.get("identity"):
        return RandomVariable(name, lambda omega: omega)
    if "table" in spec:
        table = {}
        for k, v in spec["table"].items():
            try:
                key = int(k)
            except ValueError:
                key = k
            table[key] = float(v)
        return RandomVariable(name, lambda omega, t=table: t[omega])
    if "expr" in spec:
        return expression_variable(name, spec["expr"], discrete=discrete)
    raise ConfigError(f"variable {name!r} needs one of coord/identity/table/expr")


@dataclass(eq=False)
class SpaceBundle:
    """A built space plus its named variables and partition specs."""

    space: object
    variables: dict
    partition_specs: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def variable(self, name: str) -> RandomVariable:
        if name not in self.variables:
            raise ConfigError(f"unknown variable {name!r}; have {sorted(self.variables)}")
        return self.variables[name]

    def reseed(self, seed: int | None) -> None:
        """Reseed a sampler space and drop its drawn rows; no-op for None or other spaces."""
        if seed is not None and isinstance(self.space, Sampler):
            self.space.seed = seed
            self.space._cache.clear()

    def partition(self, name: str) -> Partition:
        return Partition(self.space, tuple(self.generator_events(name)))

    def generator_events(self, name: str) -> list:
        """Cell events of a named spec, without partition validation.

        Verification generators may legally include null cells, which a
        Partition constructor must reject.
        """
        if name not in self.partition_specs:
            raise ConfigError(f"unknown partition {name!r}")
        return [self._cell_event(i, c) for i, c in enumerate(self.partition_specs[name])]

    def _cell_event(self, i: int, cell: dict) -> Event:
        label = cell.get("name", f"B{i + 1}")
        if "atoms" in cell:
            return Event.from_atoms([_coerce_atom(a) for a in cell["atoms"]], name=label)
        if "interval" in cell:
            iv = cell["interval"]
            rv = self.variable(iv["var"]) if iv["var"] in self.variables else coordinate(iv["var"])
            lo = float(iv.get("lo", -math.inf))
            hi = float(iv.get("hi", math.inf))
            return Event.interval(rv, lo, hi, name=label)
        if "expr" in cell:
            rv = expression_variable(label, cell["expr"],
                                     discrete=isinstance(self.space, DiscreteAtoms))
            return Event.where(lambda arg, f=rv.fn: f(arg), name=label)
        raise ConfigError(f"partition cell needs 'atoms', 'interval', or 'expr': {cell!r}")


def load_space(source, base_dir: Path | None = None) -> SpaceBundle:
    """Build a SpaceBundle from a config dict or a JSON file path."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            cfg = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"space config not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"space config is not valid JSON: {path}: {exc}") from exc
    else:
        cfg = dict(source)
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    space = build_space(cfg)
    discrete = isinstance(space, DiscreteAtoms)
    variables = {}
    for name, spec in (cfg.get("variables") or {}).items():
        variables[name] = build_variable(name, spec, discrete)
    return SpaceBundle(space, variables, dict(cfg.get("partitions") or {}), cfg)


@dataclass(eq=False)
class Scenario:
    """One runnable task bound to a space config."""

    name: str
    bundle: SpaceBundle
    task: str
    params: dict
    seed: int | None = None
    tol: float | None = None
    out_base: str | None = None

    TASKS = ("partition", "window", "density", "factorize", "paradox", "verify")


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"scenario not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario is not valid JSON: {path}: {exc}") from exc
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    task = cfg.get("task")
    if task not in Scenario.TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {Scenario.TASKS}")
    name = cfg.get("name") or path.stem
    space_field = cfg.get("space")
    if space_field is None and task != "paradox":
        raise ConfigError("scenario needs a 'space' (path or inline config)")
    seed = cfg.get("seed")
    if seed is not None:
        seed = _as_int(seed, "scenario seed")
    bundle = None
    if space_field is not None:
        bundle = load_space(space_field, base_dir=path.parent)
        bundle.reseed(seed)
    tol = cfg.get("tol")
    return Scenario(name=name, bundle=bundle, task=task,
                    params=dict(cfg.get("params") or {}), seed=seed,
                    tol=None if tol is None else float(tol),
                    out_base=cfg.get("out"))
