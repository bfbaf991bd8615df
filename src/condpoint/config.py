"""Declarative JSON configs for spaces, variables, partitions, scenarios.

A space config names a variant and its parameters; analytic densities are
named families (normal, uniform, mixture, and the shipped 2D joints) whose
parameters, on grids and samplers alike, ``spaces.FAMILY_PARAMS`` defines,
with ranges defaulting to eight standard deviations, which keeps the
truncated tail mass far below the normalization tolerance.  Variables
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
    FAMILY_PARAMS,
    RandomVariable,
    Sampler,
    coordinate,
    family_params,
    finite_number,
    whole_number,
)
from .window import DEFAULT_TOL, Schedule

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
    """exp(-0.5 * (x - mean)**2 / var) / sqrt(2 pi var), with ``x`` and
    ``mean`` broadcast: the same operations, filled in place in the one
    array ``x - mean`` makes."""
    q = np.subtract(x, mean)
    np.square(q, out=q)
    q *= -0.5
    q /= var
    np.exp(q, out=q)
    q /= math.sqrt(2.0 * math.pi * var)
    return q


def _known_keys(given: dict, allowed, what: str) -> None:
    """ConfigError naming the first key of ``given`` not in ``allowed``."""
    for key in given:
        if key not in allowed:
            raise ConfigError(f"unknown {what} key {key!r}; expected one of {sorted(allowed)}")


def _family_params(family: str, given: dict, what: str, extra=()) -> dict:
    """``spaces.family_params`` of ``given``, each of whose keys must be one
    of those parameters or in ``extra``; ConfigError naming the field if not."""
    _known_keys(given, {*extra, *FAMILY_PARAMS.get(family, {})}, what)
    try:
        return family_params(family, given, what)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _axis_nodes(ranges, nodes) -> list:
    """Sparse node coordinates; axis k has ``nodes[k]`` nodes over ``ranges[k]``."""
    return np.meshgrid(*(np.linspace(lo, hi, n) for (lo, hi), n in zip(ranges, nodes)),
                       indexing="ij", sparse=True)


def _grid_density(density: dict, what: str, ranges, nodes) -> tuple:
    """(ranges, node values) of the density family over ``len(nodes)`` axes,
    reading each parameter once.  Ranges that are None default to eight
    standard deviations each side of the family's centre, per axis."""
    family, dims = _as_str(density.get("family"), f"{what} family"), len(nodes)
    p = _family_params(family, density, what,
                       ("family", "components") if family == "mixture" else ("family",))
    if family == "uniform" and ranges is not None:
        return ranges, np.full(tuple(nodes), 1.0 / math.prod(hi - lo for lo, hi in ranges))
    if dims == 1 and family in ("normal", "mixture"):  # normal: one component of weight 1
        comps = ([(1.0, p)] if family == "normal" else
                 [(_as_float(c.get("weight"), "mixture component weight"),
                   _family_params("normal", c, "mixture component", ("weight",)))
                  for c in _components(density)])
        if ranges is None:
            ends = [(c["mean"], 8.0 * math.sqrt(c["var"])) for _, c in comps]
            ranges = ((min(m - w for m, w in ends), max(m + w for m, w in ends)),)
        y, = _axis_nodes(ranges, nodes)
        out = np.zeros(y.shape)
        for weight, c in comps:
            out += weight * _normal_pdf(y, c["mean"], c["var"])
        return ranges, out
    if dims == 2 and family == "bivariate-normal":
        rho = p["rho"]
        ranges = ranges or ((-8.0, 8.0), (-8.0, 8.0))
        u, v = _axis_nodes(ranges, nodes)
        det = 1.0 - rho * rho
        # exp(-0.5 * (u*u - 2 rho u v + v*v) / det) / (2 pi sqrt(det)) in place
        q = (2.0 * rho * u) * v
        np.subtract(u * u, q, out=q)
        q += v * v
        q /= det
        q *= -0.5
        np.exp(q, out=q)
        q /= 2.0 * math.pi * math.sqrt(det)
        return ranges, q
    if dims == 2 and family == "gaussian-sum":
        if ranges is None:
            sd_x, sd_y = math.sqrt(p["var_x"]), math.sqrt(p["var_x"] + p["var_noise"])
            ranges = ((-8.0 * sd_x, 8.0 * sd_x), (-8.0 * sd_y, 8.0 * sd_y))
        u, v = _axis_nodes(ranges, nodes)
        q = _normal_pdf(v, u, p["var_noise"])  # the noise density at y - x: one grid-sized array
        q *= _normal_pdf(u, 0.0, p["var_x"])
        return ranges, q
    if family == "uniform":
        raise ConfigError("density family 'uniform' needs "
                          + ("an explicit range" if dims == 1 else "explicit ranges"))
    raise ConfigError(f"unknown {dims}D density family {family!r}")


def _components(density: dict) -> list:
    """A mixture's component objects."""
    return [_as_object(c, "mixture component")
            for c in _as_list(density.get("components"), "mixture components")]


def _coerce_atom(a):
    if isinstance(a, list):
        return tuple(_coerce_atom(v) for v in a)
    return a


def _as_int(value, what: str) -> int:
    """An integer, raising ConfigError that names the field.  A Python int
    passes through exactly (seeds can exceed 2**53); a number with a
    fraction is not one, nor is a JSON ``true`` or ``false``."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return int(value)
    try:
        n = float(value)
    except (TypeError, ValueError):
        n = math.nan
    if not n.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(n)


def _as_float(value, what: str) -> float:
    """``float(value)``, raising ConfigError that names the field."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc


def _as_finite(value, what: str, low: float | None = None, strict: bool = False,
               high: float | None = None) -> float:
    """``spaces.finite_number``, raising ConfigError that names the field."""
    try:
        return finite_number(value, what, low, strict, high)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _as_count(value, what: str, low: int = 1) -> int:
    """``spaces.whole_number`` >= ``low`` of ``_as_int``, raising ConfigError
    that names the field."""
    try:
        return whole_number(_as_int(value, what), what, low)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _as_pair(value, what: str, convert) -> tuple:
    """A list of two entries, each through ``convert(entry, what)``."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{what} must be a list of 2 entries, got {value!r}")
    return tuple(convert(v, what) for v in value)


# The keys each space kind reads, beside the keys any space document may
# carry (``_DOCUMENT_KEYS``: its kind, label, schema and the entries
# ``load_space`` reads)
_SPACE_KEYS = {
    "discrete": ("atoms",),
    "grid1d": ("axis", "density", "nodes", "quad_tol", "range"),
    "grid2d": ("axes", "density", "nodes", "quad_tol", "ranges"),
    "sampler": ("budget", "family", "params", "seed"),
}
_DOCUMENT_KEYS = ("kind", "name", "partitions", "schema_version", "variables")


def build_space(cfg: dict):
    """The space a config describes; ConfigError naming an unknown kind, an
    unknown key of its kind, or a field that does not convert."""
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _SPACE_KEYS:
        raise ConfigError(f"unknown space kind {kind!r}")
    _known_keys(cfg, {*_DOCUMENT_KEYS, *_SPACE_KEYS[kind]}, f"{kind} space")
    if kind == "discrete":
        pairs = cfg.get("atoms")
        if not pairs:
            raise ConfigError("discrete space needs an 'atoms' list of [atom, weight]")
        pairs = [_as_pair(p, "discrete atom [atom, weight]", lambda v, _: v) for p in pairs]
        atoms = tuple(_coerce_atom(a) for a, _ in pairs)
        weights = np.array([_as_float(w, f"discrete atom {a!r} weight") for a, w in pairs])
        try:
            return DiscreteAtoms(atoms, weights)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if kind in ("grid1d", "grid2d"):
        density = _as_object(cfg.get("density") or {}, f"{kind} density")
        quad_tol = _as_finite(cfg.get("quad_tol", 1e-8), f"{kind} quad_tol", 0.0)
        try:
            if kind == "grid1d":
                ranges = ((_as_pair(cfg["range"], "grid1d range", _as_float),)
                          if "range" in cfg else None)
                nodes = [_as_int(cfg.get("nodes", 1601), "grid1d nodes")]
                axes = [cfg.get("axis", "y")]
            else:
                ranges = (_as_pair(cfg["ranges"], "grid2d ranges",
                                   lambda r, what: _as_pair(r, what, _as_float))
                          if "ranges" in cfg else None)
                nodes = _as_pair(cfg.get("nodes", [801, 801]), "grid2d nodes", _as_int)
                axes = _as_pair(cfg.get("axes", ["z", "y"]), "grid2d axes", lambda v, _: v)
            ranges, values = _grid_density(density, f"{kind} density", ranges, nodes)
            return (DensityGrid1D(axes[0], *ranges[0], values, quad_tol) if kind == "grid1d"
                    else DensityGrid2D(axes, ranges, values, quad_tol))
        except ValueError as exc:  # density parameters and the grid's own checks
            raise ConfigError(f"{kind} space: {exc}") from exc
    if kind == "sampler":
        if "seed" not in cfg:
            raise ConfigError("sampler spaces require an explicit seed")
        family = _as_str(cfg.get("family", "standard-normal-pair"), "sampler family")
        params = _as_object(cfg.get("params") or {}, "sampler params")
        try:
            return Sampler(family, params=_family_params(family, params, "sampler params"),
                           seed=_as_count(cfg["seed"], "sampler seed", 0),
                           budget=_as_count(cfg.get("budget", 100_000), "sampler budget"))
        except ValueError as exc:  # an unknown family
            raise ConfigError(str(exc)) from exc


def build_variable(name: str, spec: dict, discrete: bool) -> RandomVariable:
    what = f"variable {name!r}"
    spec = _as_object(spec, what)
    if "coord" in spec:
        return coordinate(_as_str(spec["coord"], f"{what} coord"))
    if spec.get("identity"):
        return RandomVariable(name, lambda omega: omega)
    if "table" in spec:
        table = {}
        for k, v in _as_object(spec["table"], f"{what} table").items():
            try:
                key = int(k)
            except ValueError:
                key = k
            table[key] = _as_float(v, f"{what} table value")
        return RandomVariable(name, lambda omega, t=table: t[omega])
    if "expr" in spec:
        return expression_variable(name, _as_str(spec["expr"], f"{what} expr"),
                                   discrete=discrete)
    raise ConfigError(f"{what} needs one of coord/identity/table/expr")


@dataclass(eq=False)
class SpaceBundle:
    """A built space plus its named variables and partition specs."""

    space: object
    variables: dict
    partition_specs: dict = field(default_factory=dict)

    def variable(self, name: str) -> RandomVariable:
        if name not in self.variables:
            raise ConfigError(f"unknown variable {name!r}; have {sorted(self.variables)}")
        return self.variables[name]

    def partition(self, name: str) -> Partition:
        return Partition(self.space, tuple(self.generator_events(name)))

    def generator_events(self, name: str) -> list:
        """Cell events of a named spec, without partition validation.

        Verification generators may legally include null cells, which a
        Partition constructor must reject.
        """
        if name not in self.partition_specs:
            raise ConfigError(f"unknown partition {name!r}")
        cells = _as_list(self.partition_specs[name], f"partition {name!r}")
        return [self._cell_event(i, _as_object(c, f"partition {name!r} cell {i + 1}"))
                for i, c in enumerate(cells)]

    def _cell_event(self, i: int, cell: dict) -> Event:
        label = cell.get("name", f"B{i + 1}")
        if "atoms" in cell:
            atoms = _as_list(cell["atoms"], f"partition cell {label!r} atoms")
            return Event.from_atoms([_coerce_atom(a) for a in atoms], name=label)
        if "interval" in cell:
            what = f"partition cell {label!r} interval"
            iv = _as_object(cell["interval"], what)
            var = _as_str(iv.get("var"), f"{what} var")
            rv = self.variable(var) if var in self.variables else coordinate(var)
            lo = _as_float(iv.get("lo", -math.inf), f"{what} lo")
            hi = _as_float(iv.get("hi", math.inf), f"{what} hi")
            return Event.interval(rv, lo, hi, name=label)
        if "expr" in cell:
            rv = expression_variable(label, _as_str(cell["expr"], f"partition cell {label!r} expr"),
                                     discrete=isinstance(self.space, DiscreteAtoms))
            return Event.where(rv.fn, name=label)
        raise ConfigError(f"partition cell needs 'atoms', 'interval', or 'expr': {cell!r}")


def _document(source, what: str, base_dir: Path | None = None) -> tuple:
    """(config dict, its file path or None) from a dict or a JSON file path."""
    path = None
    if isinstance(source, (str, Path)):
        path = Path(source)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            cfg = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"{what} not found: {path}") from exc
        except OSError as exc:  # a directory, no permission
            raise ConfigError(f"{what} cannot be read: {path}: {exc.strerror}") from exc
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise ConfigError(f"{what} is not valid JSON: {path}: {exc}") from exc
    else:
        cfg = source
    if not isinstance(cfg, dict) or cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    return dict(cfg), path


def load_space(source, base_dir: Path | None = None) -> SpaceBundle:
    """Build a SpaceBundle from a config dict or a JSON file path."""
    cfg, _ = _document(source, "space config", base_dir)
    space = build_space(cfg)
    discrete = isinstance(space, DiscreteAtoms)
    variables = {}
    for name, spec in _as_object(cfg.get("variables") or {}, "variables").items():
        variables[name] = build_variable(name, spec, discrete)
    return SpaceBundle(space, variables, _as_object(cfg.get("partitions") or {}, "partitions"))


def _of_type(kind, label: str):
    """A converter that passes a ``kind`` through and rejects anything else."""
    def check(value, what: str):
        if not isinstance(value, kind):
            raise ConfigError(f"{what} must be {label}, got {value!r}")
        return value
    return check


_as_str = _of_type(str, "a string")
_as_list = _of_type((list, tuple), "a list")
_as_object = _of_type(dict, "an object")


def _as_grid(value, what: str) -> list:
    """``[a, b, n]``: two bounds and a node count n >= 1."""
    grid = _as_list(value, what)
    if len(grid) != 3:
        raise ConfigError(f"{what} must be [a, b, n], got {value!r}")
    return [_as_finite(grid[0], what), _as_finite(grid[1], what), _as_count(grid[2], f"{what} n")]


def _as_schedule(value, what: str) -> Schedule:
    """A Schedule from ``{"eps0", "depth"}``, each optional; ConfigError
    naming any other key."""
    spec = _as_object(value, what)
    _known_keys(spec, ("depth", "eps0"), what)
    eps0 = spec.get("eps0")
    try:
        return Schedule(eps0=None if eps0 is None else _as_float(eps0, f"{what} eps0"),
                        depth=_as_int(spec.get("depth", 20), f"{what} depth"))
    except ValueError as exc:  # the schedule's own checks
        raise ConfigError(f"{what}: {exc}") from exc


# The type of each task param that is not a name (a string)
_PARAM_TYPES = {"at": _as_finite, "budget": _as_count,
                "band": lambda value, what: _as_finite(value, what, 0.0, strict=True),
                "control": _of_type(bool, "true or false"), "grid": _as_grid,
                "levels": lambda value, what: [_as_finite(v, what) for v in _as_list(value, what)],
                "schedule": _as_schedule}


def param_value(key: str, value, what: str):
    """``value`` as task param ``key`` expects it; ConfigError naming ``what`` if not."""
    return _PARAM_TYPES.get(key, _as_str)(value, what)


@dataclass(eq=False)
class Scenario:
    """One runnable task bound to a space config."""

    name: str
    bundle: SpaceBundle
    task: str
    params: dict
    seed: int | None = None
    tol: float = DEFAULT_TOL
    out_base: str | None = None

    def param(self, key: str, default=...):
        """Task param ``key`` through ``param_value``; ``default`` when it is
        absent or null, where the default ``...`` means required.  Every
        failure is a ConfigError naming the task and the field."""
        if self.params.get(key) is None:
            if default is ...:
                raise ConfigError(f"{self.task} {key} is missing")
            return default
        return param_value(key, self.params[key], f"{self.task} {key}")


_SCENARIO_KEYS = ("name", "out", "params", "schema_version", "seed", "space", "task", "tol")


def _file_name(value, what: str) -> str:
    """A string naming a file inside the output directory: no path separator,
    and not "", "." or ".."; ConfigError naming the field otherwise."""
    name = _as_str(value, what)
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ConfigError(f"{what} must be a plain file name, got {name!r}")
    return name


def load_scenario(source) -> Scenario:
    """Build a Scenario from a scenario document or a JSON file path.

    A relative space path is read against the scenario file's directory, or
    against the working directory for a document.
    """
    cfg, path = _document(source, "scenario")
    _known_keys(cfg, _SCENARIO_KEYS, "scenario")
    task = _as_str(cfg.get("task"), "scenario task")
    from .cli import task_entry  # here: cli imports this module
    _, task_params = task_entry(task)
    name = cfg.get("name")
    name = _file_name(name if name is not None else path.stem if path is not None else task,
                      "scenario name")
    out = cfg.get("out")
    out = None if out is None else _file_name(out, "scenario out")
    params = _as_object(cfg.get("params") or {}, "scenario params")
    _known_keys(params, task_params, f"{task} param")
    space_field = cfg.get("space")
    if space_field is None and task != "paradox":
        raise ConfigError("scenario needs a 'space' (path or inline config)")
    seed = cfg.get("seed")
    if seed is not None:
        seed = _as_count(seed, "scenario seed", 0)
    tol = cfg.get("tol")
    tol = DEFAULT_TOL if tol is None else _as_finite(tol, "scenario tol", 0.0)
    bundle = None
    if space_field is not None:
        bundle = load_space(space_field, base_dir=None if path is None else path.parent)
        if seed is not None and isinstance(bundle.space, Sampler):
            bundle.space.seed = seed  # nothing is drawn yet
    return Scenario(name=name, bundle=bundle, task=task,
                    params=dict(params), seed=seed, tol=tol, out_base=out)
