import json
import math
import tracemalloc

import numpy as np
import pytest

import condpoint as cp
from condpoint import cli
from condpoint.config import build_space, load_scenario, load_space
from condpoint.errors import ConfigError, GridMismatch
from condpoint.serialize import to_json, write_csv, write_json

from conftest import SCENARIO_DIR


def test_load_dice_space():
    bundle = load_space(SCENARIO_DIR / "spaces" / "dice.json")
    assert isinstance(bundle.space, cp.DiscreteAtoms)
    assert bundle.space.atoms == (1, 2, 3, 4, 5, 6)
    X = bundle.variable("X")
    assert cp.expectation(bundle.space, X).value == pytest.approx(3.5, abs=1e-12)
    part = bundle.partition("halves")
    pce = cp.partition_cond_exp(bundle.space, X, part)
    assert abs(pce.values[0] - 1.5) <= 1e-12 and abs(pce.values[1] - 4.5) <= 1e-12


def test_load_coin_space_tuple_atoms():
    bundle = load_space(SCENARIO_DIR / "spaces" / "coin-pair.json")
    assert (0, 1) in bundle.space.atoms
    s = bundle.variable("sum")
    assert cp.expectation(bundle.space, s).value == 1.0


def test_expression_variables_on_grid():
    bundle = load_space({
        "schema_version": 1, "kind": "grid1d", "axis": "y",
        "density": {"family": "normal"}, "nodes": 801,
        "variables": {"soft": {"expr": "exp(-abs(y))"}}})
    v = cp.expectation(bundle.space, bundle.variable("soft")).value
    assert 0.0 < v < 1.0


def test_schema_version_enforced(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kind": "discrete", "atoms": [[1, 1.0]]}))
    with pytest.raises(ConfigError):
        load_space(p)


def test_unknown_variable_and_partition():
    bundle = load_space(SCENARIO_DIR / "spaces" / "dice.json")
    with pytest.raises(ConfigError):
        bundle.variable("nope")
    with pytest.raises(ConfigError):
        bundle.partition("nope")


@pytest.mark.parametrize("weight", [math.nan, "NaN"])
def test_nan_atom_weight_is_a_config_error(weight):
    cfg = {"schema_version": 1, "kind": "discrete", "atoms": [[0, weight], [1, 1.0]]}
    with pytest.raises(ConfigError, match="atom weights must be non-negative numbers"):
        load_space(cfg)


def test_sampler_config_requires_seed():
    with pytest.raises(ConfigError):
        load_space({"schema_version": 1, "kind": "sampler", "family": "uniform-square"})


def test_mixture_family_normalizes():
    bundle = load_space({
        "schema_version": 1, "kind": "grid1d", "axis": "y", "nodes": 2001,
        "density": {"family": "mixture",
                    "components": [{"weight": 0.3, "mean": -2.0, "var": 0.5},
                                   {"weight": 0.7, "mean": 1.0, "var": 2.0}]}})
    y = cp.coordinate("y")
    assert abs(cp.expectation(bundle.space, y).value - (0.3 * -2.0 + 0.7 * 1.0)) <= 1e-6


def test_serialize_17_digits(tmp_path):
    path = write_json(tmp_path / "x.json", {"v": 1.0 / 3.0, "i": 7, "s": "a",
                                            "inf": math.inf, "none": None})
    text = path.read_text()
    assert "0.33333333333333331" in text
    assert '"inf"' in text
    back = json.loads(text)
    assert back["v"] == 1.0 / 3.0  # exact round trip


def test_csv_format(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "b"], [(0.5, 1), (1.0 / 3.0, None)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "0.5,1"
    assert lines[2].startswith("0.33333333333333331,")


def test_run_dice_scenario(tmp_path):
    summary = cli.run_paths([SCENARIO_DIR / "dice-partition.json"], tmp_path)
    assert summary["ok"]
    doc = json.loads((tmp_path / "dice-partition.json").read_text())
    values = [c["value"] for c in doc["cells"]]
    assert values == [1.5, 4.5]
    assert doc["mean"] == pytest.approx(3.5, abs=1e-12)


def test_run_empty_scenario_list(tmp_path, capsys):
    rc = cli.main(["run", "--outdir", str(tmp_path / "none")])
    assert rc == 0
    assert not (tmp_path / "none").exists()


def test_run_verify_scenario(tmp_path):
    summary = cli.run_paths([SCENARIO_DIR / "d8-verify.json"], tmp_path)
    assert summary["ok"]
    doc = json.loads((tmp_path / "d8-verify.json").read_text())
    assert doc["passed"] is True
    assert all(c["residual"] == 0.0 for c in doc["checks"])


def test_run_factorize_scenario(tmp_path):
    summary = cli.run_paths([SCENARIO_DIR / "coin-factorize.json"], tmp_path)
    assert summary["ok"]
    doc = json.loads((tmp_path / "coin-factorize.json").read_text())
    assert doc["verdict"] == "Factored"
    got = {lv["level"]: lv["witnesses"][0] for lv in doc["levels"]}
    assert got == {0.0: 0.5, 1.0: 1.5}


def test_cli_window_at_point(tmp_path, capsys):
    out = tmp_path / "trace.json"
    rc = cli.main(["window", "--space", str(SCENARIO_DIR / "spaces" / "gaussian-sum-sampler.json"),
                   "--x", "X", "--y", "Y", "--at", "2.0",
                   "--seed", "20260811", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "window_trace"
    assert doc["verdict"] == "Converged"
    assert abs(doc["value"] - 1.0) <= 3.0 * doc["steps"][-1]["se"]


def test_cli_window_grid_with_negative_bound(tmp_path):
    out = tmp_path / "wgrid.json"
    rc = cli.main(["window", "--space", str(SCENARIO_DIR / "spaces" / "bivariate-05.json"),
                   "--x", "Z", "--y", "Y", "--grid", "-1:1:5", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["grid"][0] == -1.0 and len(doc["grid"]) == 5


def test_cli_density(tmp_path):
    out = tmp_path / "dens.json"
    csv_out = tmp_path / "dens.csv"
    rc = cli.main(["density", "--joint", str(SCENARIO_DIR / "spaces" / "bivariate-05.json"),
                   "--at", "1.0", "--emit-density", str(csv_out), "--expect", "z",
                   "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert abs(doc["expect"]["value"] - 0.5) <= 1e-5
    header = csv_out.read_text().splitlines()[0]
    assert header == "z,density"


def test_cli_factorize(tmp_path):
    out = tmp_path / "fact.json"
    rc = cli.main(["factorize", "--space", str(SCENARIO_DIR / "spaces" / "coin-pair.json"),
                   "--g", "sum_given_first", "--y", "first", "--levels", "0,1",
                   "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["verdict"] == "Factored"


def test_cli_verify(tmp_path):
    out = tmp_path / "verify.json"
    rc = cli.main(["verify", "--space", str(SCENARIO_DIR / "spaces" / "d8-null.json"),
                   "--x", "X", "--candidate", "candidate_17_on_null",
                   "--generators", "null-algebra", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["passed"] is True


def test_cli_paradox_and_compare(tmp_path):
    out = tmp_path / "paradox.json"
    rc = cli.main(["paradox", "--instance", "ratio-normal", "--budget", "500000",
                   "--seed", "20260811", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "paradox_report"
    # the two family traces share the eps grid and must fail a tight compare
    diff = cli.compare(doc, doc, tol=1e-6, family_a="via_y", family_b="via_ratio")
    assert not diff["passed"] and diff["max_diff"] > 0.5
    same = cli.compare(doc, doc, tol=0.0, family_a="via_y", family_b="via_y")
    assert same["passed"] and same["max_diff"] == 0.0


def test_cli_paradox_without_control_and_with_an_unknown_instance(tmp_path, capsys):
    out = tmp_path / "paradox.json"
    rc = cli.main(["paradox", "--budget", "200000", "--seed", "20260811", "--no-control",
                   "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "paradox_report" and "control" not in doc
    capsys.readouterr()
    assert cli.main(["paradox", "--instance", "nope"]) == 1
    assert capsys.readouterr().err == to_json(
        {"error": "TaskError: unknown paradox instance 'nope'"})


def test_compare_grid_mismatch():
    a = {"grid": [0.0, 1.0], "values": [1.0, 2.0]}
    b = {"grid": [0.0, 2.0], "values": [1.0, 2.0]}
    with pytest.raises(GridMismatch):
        cli.compare(a, b, tol=1.0)


def test_compare_window_vs_density_scenarios(tmp_path):
    cli.run_paths([SCENARIO_DIR / "bivariate-rho05-window.json"], tmp_path)
    doc = json.loads((tmp_path / "bivariate-rho05-window.json").read_text())
    joint = load_space(SCENARIO_DIR / "spaces" / "bivariate-05.json").space
    dens = {"grid": doc["grid"],
            "values": [cp.conditional_expectation_via_density(joint, y)
                       for y in doc["grid"]]}
    diff = cli.compare(doc, dens, tol=1e-3)
    assert diff["passed"]


def test_unknown_scenario_task(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema_version": 1, "name": "bad", "task": "nope",
                             "space": {"schema_version": 1, "kind": "discrete",
                                       "atoms": [[1, 1.0]]}}))
    with pytest.raises(ConfigError):
        load_scenario(p)


def test_run_reports_an_unknown_task_as_failed(tmp_path):
    scn = load_scenario(SCENARIO_DIR / "dice-partition.json")
    scn.task = "nope"
    entry = cli.run(scn, tmp_path)
    assert not entry["ok"] and entry["artifacts"] == []
    assert entry["error"].startswith("ConfigError: unknown task 'nope'; expected one of")
    assert list(tmp_path.iterdir()) == []


def test_run_reports_scenario_errors(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({"schema_version": 1, "name": "broken", "task": "window",
                             "space": {"schema_version": 1, "kind": "discrete",
                                       "atoms": [[1, 1.0]]},
                             "params": {"x": "missing", "y": "missing", "at": 0.0}}))
    summary = cli.run_paths([p], tmp_path / "out")
    assert not summary["ok"]
    assert "error" in summary["scenarios"][0]


def test_json_output_deterministic(tmp_path):
    doc = {"b": 1.0 / 7.0, "a": [1, 2.5, None], "c": {"x": True}}
    assert to_json(doc) == to_json(json.loads(to_json(doc)))


def test_artifacts_carry_versioned_schema(tmp_path):
    cli.run_paths([SCENARIO_DIR / "dice-partition.json",
                   SCENARIO_DIR / "coin-factorize.json"], tmp_path)
    for name in ("dice-partition.json", "coin-factorize.json", "summary.json"):
        doc = json.loads((tmp_path / name).read_text())
        assert doc["schema_version"] == 1
        assert "kind" in doc


def test_expr_partition_cells():
    bundle = load_space({
        "schema_version": 1, "kind": "discrete",
        "atoms": [[k, 1.0 / 6.0] for k in range(1, 7)],
        "variables": {"X": {"identity": True}},
        "partitions": {"parity": [{"name": "odd", "expr": "omega % 2 == 1"},
                                  {"name": "even", "expr": "omega % 2 == 0"}]}})
    part = bundle.partition("parity")
    pce = cp.partition_cond_exp(bundle.space, bundle.variable("X"), part)
    assert abs(pce.values[0] - 3.0) <= 1e-12 and abs(pce.values[1] - 4.0) <= 1e-12


@pytest.mark.parametrize("expr", [
    "().__class__.__mro__[1].__subclasses__()",  # escape from empty __builtins__
    "y.real",                                    # attribute access
    "y[0]",                                      # subscript of a non-frame name
    "pi(1)",                                     # call to a constant
    "'text'",                                    # non-numeric constant
    "exp(",                                      # syntax error
])
def test_unsafe_expressions_rejected(expr):
    with pytest.raises(ConfigError):
        load_space({"schema_version": 1, "kind": "grid1d", "axis": "y",
                    "density": {"family": "normal"}, "nodes": 101,
                    "variables": {"bad": {"expr": expr}}})


def test_every_shipped_scenario_loads():
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert paths
    for path in paths:
        load_scenario(path)


def test_cli_inline_task_error(tmp_path, capsys):
    out = tmp_path / "dens.json"
    rc = cli.main(["density", "--joint", str(SCENARIO_DIR / "spaces" / "gaussian-sum-sampler.json"),
                   "--at", "0", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    summary = {"name": "dens", "task": "density", "ok": False, "artifacts": [],
               "error": "TaskError: density tasks need a grid2d joint space"}
    assert json.loads(captured.out) == summary
    assert json.loads(out.read_text()) == summary
    assert json.loads(captured.err) == {"error": summary["error"]}


def test_run_reports_non_integer_seed(tmp_path, capsys):
    bad = tmp_path / "bad-seed.json"
    bad.write_text(json.dumps({"schema_version": 1, "name": "bad-seed", "task": "partition",
                               "space": str(SCENARIO_DIR / "spaces" / "dice.json"),
                               "seed": "abc"}))
    outdir = tmp_path / "o"
    rc = cli.main(["run", str(bad), str(SCENARIO_DIR / "dice-partition.json"),
                   "--outdir", str(outdir)])
    assert rc != 0
    capsys.readouterr()
    assert (outdir / "dice-partition.json").exists()
    summary = json.loads((outdir / "summary.json").read_text())
    by_name = {e["name"]: e for e in summary["scenarios"]}
    assert not summary["ok"] and by_name["dice-partition"]["ok"]
    assert not by_name["bad-seed"]["ok"]
    assert by_name["bad-seed"]["error"].startswith("ConfigError: scenario seed")


@pytest.mark.parametrize("field", ["seed", "budget"])
@pytest.mark.parametrize("value", ["abc", None, [1]])
def test_sampler_seed_and_budget_must_be_integers(field, value):
    cfg = {"schema_version": 1, "kind": "sampler", "family": "uniform-square",
           "seed": 1, "budget": 100}
    cfg[field] = value
    with pytest.raises(ConfigError, match=f"sampler {field}"):
        load_space(cfg)


@pytest.mark.parametrize("kind, field, value, match", [
    ("grid1d", "nodes", "abc", "grid1d nodes"),
    ("grid2d", "nodes", 5, "grid2d nodes"),
    ("grid2d", "nodes", [801], "grid2d nodes"),
    ("grid2d", "ranges", [[0, 1]], "grid2d ranges"),
    ("grid2d", "axes", ["x"], "grid2d axes"),
    ("grid1d", "quad_tol", "x", "grid1d quad_tol"),
    ("grid1d", "quad_tol", math.nan, "grid1d quad_tol"),
    ("grid1d", "quad_tol", math.inf, "grid1d quad_tol"),
    ("grid1d", "quad_tol", -1, "grid1d quad_tol"),
    ("grid1d", "nodes", 1, "grid1d space: grid needs at least 2 nodes"),
])
def test_bad_grid_field_is_a_config_error(kind, field, value, match):
    cfg = {"schema_version": 1, "kind": kind, "nodes": 101 if kind == "grid1d" else [101, 101],
           "density": {"family": "normal" if kind == "grid1d" else "bivariate-normal"}}
    cfg[field] = value
    with pytest.raises(ConfigError, match=match):
        load_space(cfg)


@pytest.mark.parametrize("kind, field, value, match", [
    ("grid1d", "nodes", 101.9, "grid1d nodes must be an integer"),
    ("grid2d", "nodes", [101, 101.5], "grid2d nodes must be an integer"),
    ("sampler", "seed", 1.7, "sampler seed must be an integer"),
    ("sampler", "budget", 100.5, "sampler budget must be an integer"),
])
def test_fractional_config_integer_is_a_config_error(kind, field, value, match):
    cfg = ({"schema_version": 1, "kind": kind, "seed": 1} if kind == "sampler" else
           {"schema_version": 1, "kind": kind, "nodes": 101 if kind == "grid1d" else [101, 101],
            "density": {"family": "normal" if kind == "grid1d" else "bivariate-normal"}})
    cfg[field] = value
    with pytest.raises(ConfigError, match=match):
        load_space(cfg)


@pytest.mark.parametrize("kind, field, value, match", [
    ("sampler", "seed", True, "sampler seed must be an integer, got True"),
    ("sampler", "budget", True, "sampler budget must be an integer, got True"),
    ("grid1d", "nodes", True, "grid1d nodes must be an integer, got True"),
    ("grid2d", "nodes", [101, False], "grid2d nodes must be an integer, got False"),
])
def test_a_boolean_config_integer_is_a_config_error(kind, field, value, match):
    # JSON true is no integer: it would build seed 1, budget 1 or one node
    cfg = ({"schema_version": 1, "kind": kind, "seed": 1} if kind == "sampler" else
           {"schema_version": 1, "kind": kind, "density": {
               "family": "normal" if kind == "grid1d" else "bivariate-normal"}})
    cfg[field] = value
    with pytest.raises(ConfigError, match=match):
        load_space(cfg)


# a seed keys every block's generator, so a negative one fails where it enters


def test_a_negative_sampler_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="sampler seed must be an integer >= 0, got -5"):
        load_space({"schema_version": 1, "kind": "sampler", "seed": -5, "budget": 100})


def test_a_negative_scenario_seed_is_a_config_error(tmp_path):
    entry = _run_beside_dice(tmp_path, {
        "schema_version": 1, "name": "bad", "task": "window",
        "space": str(SCENARIO_DIR / "spaces" / "gaussian-sum-sampler.json"),
        "params": {"x": "X", "y": "Y", "at": 2.0}, "seed": -5})
    assert entry["error"] == "ConfigError: scenario seed must be an integer >= 0, got -5"


def test_a_negative_inline_seed_exits_2(capsys):
    rc = cli.main(["window", "--space", str(SCENARIO_DIR / "spaces" / "gaussian-sum-sampler.json"),
                   "--x", "X", "--y", "Y", "--at", "2", "--seed", "-5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ConfigError", "message": "scenario seed must be an integer >= 0, got -5"}


def test_config_integers_pass_through_exactly():
    seed = 2**60 + 1  # not a float
    bundle = load_space({"schema_version": 1, "kind": "sampler", "seed": seed, "budget": 100.0})
    assert bundle.space.seed == seed and bundle.space.budget == 100
    grid = load_space({"schema_version": 1, "kind": "grid1d", "nodes": 101.0,
                       "density": {"family": "normal"}})
    assert grid.space.grid[0].size == 101


@pytest.mark.parametrize("density, match", [
    ({"family": "mixture"}, "mixture components must be a list"),
    ({"family": "mixture", "components": [{"mean": 0.0}]}, "mixture component weight"),
    ({"family": "mixture", "components": [1.0]}, "mixture component must be an object"),
])
@pytest.mark.parametrize("grid_range", [None, [-5.0, 5.0]])
def test_bad_mixture_is_a_config_error(density, match, grid_range):
    cfg = {"schema_version": 1, "kind": "grid1d", "nodes": 101, "density": density}
    if grid_range is not None:
        cfg["range"] = grid_range
    with pytest.raises(ConfigError, match=match):
        load_space(cfg)


def test_table_variable_keeps_non_integer_keys():
    bundle = load_space({"schema_version": 1, "kind": "discrete",
                         "atoms": [["heads", 0.5], ["tails", 0.5], [2, 0.0]],
                         "variables": {"X": {"table": {"heads": 1, "tails": 3, "2": 7}}}})
    X = bundle.variable("X")
    assert [X.fn(a) for a in bundle.space.atoms] == [1.0, 3.0, 7.0]
    assert cp.expectation(bundle.space, X).value == 2.0


def test_interval_partition_cells_from_config():
    bundle = load_space({
        "schema_version": 1, "kind": "grid1d", "axis": "y", "nodes": 801,
        "density": {"family": "normal"},
        "variables": {"Y": {"coord": "y"}, "Y2": {"expr": "y * y"}},
        "partitions": {
            "sign": [{"name": "neg", "interval": {"var": "Y", "hi": 0}},
                     {"name": "pos", "interval": {"var": "y", "lo": 0}}],
            "inner": [{"interval": {"var": "Y2", "hi": 1}},
                      {"interval": {"var": "Y2", "lo": 1}}]}})
    sign = bundle.partition("sign")
    assert [c.name for c in sign.cells] == ["neg", "pos"]
    assert [c.pieces for c in sign.cells] == [((-math.inf, 0.0),), ((0.0, math.inf),)]
    assert sign.probs == pytest.approx([0.5, 0.5], abs=1e-8)
    inner = bundle.generator_events("inner")
    assert [c.name for c in inner] == ["B1", "B2"]
    assert inner[0].rv is bundle.variable("Y2")
    # P(Y^2 < 1) = P(|Y| < 1), by node-indicator quadrature
    assert cp.probability(bundle.space, inner[0]).value == pytest.approx(
        0.6826894921370859, abs=5e-3)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
def test_non_finite_grid_density_is_a_config_error():
    # a zero variance makes every node 0/0
    cfg = {"schema_version": 1, "kind": "grid1d", "range": [-5, 5],
           "density": {"family": "normal", "var": 0}, "nodes": 101}
    with pytest.raises(ConfigError, match="grid1d space: density values must be non-negative numbers"):
        load_space(cfg)


def test_run_reports_bad_grid_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "task": "window",
                               "space": {"schema_version": 1, "kind": "grid1d",
                                         "density": {"family": "normal"}, "nodes": "abc"}}))
    outdir = tmp_path / "o"
    rc = cli.main(["run", str(bad), str(SCENARIO_DIR / "dice-partition.json"),
                   "--outdir", str(outdir)])
    assert rc == 1
    capsys.readouterr()
    assert (outdir / "dice-partition.json").exists()
    by_name = {e["name"]: e for e in json.loads((outdir / "summary.json").read_text())["scenarios"]}
    assert by_name["dice-partition"]["ok"]
    assert not by_name["bad"]["ok"]
    assert by_name["bad"]["error"].startswith("ConfigError: grid1d nodes")


SAMPLER_BUDGET_0 = {"schema_version": 1, "kind": "sampler", "seed": 1, "budget": 0,
                    "variables": {"Y": {"coord": "y"}}}


@pytest.mark.parametrize("task, space, params, tol, error", [
    ("window", "bivariate-05.json", {"x": "Z", "y": "Y", "grid": [-1, 1]}, None, "window grid"),
    ("window", "bivariate-05.json", {"x": "Z", "y": "Y", "grid": [0, 1, 0]}, None,
     "window grid n"),
    ("window", "bivariate-05.json", {"x": "Z", "y": "Y", "at": 0, "schedule": {"depth": 1}},
     None, "window schedule"),
    ("partition", "dice.json", {"x": "X", "partition": "halves"}, "abc", "scenario tol"),
    ("partition", "dice.json", {"partition": "halves"}, None, "partition x"),
    ("factorize", "coin-pair.json", {"g": "sum", "y": "first", "levels": 1}, None,
     "factorize levels"),
    ("paradox", None, {"budget": 0}, None, "paradox budget"),
    ("window", SAMPLER_BUDGET_0, {"x": "Y", "y": "Y", "at": 0}, None, "sampler budget"),
])
def test_run_reports_bad_task_params(tmp_path, capsys, task, space, params, tol, error):
    bad = tmp_path / "bad.json"
    if isinstance(space, str):
        space = str(SCENARIO_DIR / "spaces" / space)
    bad.write_text(json.dumps({"schema_version": 1, "task": task, "space": space,
                               "params": params, "tol": tol}))
    outdir = tmp_path / "o"
    rc = cli.main(["run", str(bad), str(SCENARIO_DIR / "dice-partition.json"),
                   "--outdir", str(outdir)])
    assert rc == 1
    capsys.readouterr()
    assert sorted(p.name for p in outdir.iterdir()) == ["dice-partition.json", "summary.json"]
    by_name = {e["name"]: e for e in json.loads((outdir / "summary.json").read_text())["scenarios"]}
    assert by_name["dice-partition"]["ok"]
    assert not by_name["bad"]["ok"]
    assert by_name["bad"]["error"].startswith(f"ConfigError: {error}")


def _run_beside_dice(tmp_path, doc: dict) -> dict:
    """The summary entry of scenario ``doc`` run beside dice-partition.json,
    after checking that the run exits 1 and still writes the dice artifact."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    outdir = tmp_path / "o"
    rc = cli.main(["run", str(bad), str(SCENARIO_DIR / "dice-partition.json"),
                   "--outdir", str(outdir)])
    assert rc == 1
    assert sorted(p.name for p in outdir.iterdir()) == ["dice-partition.json", "summary.json"]
    by_name = {e["name"]: e for e in json.loads((outdir / "summary.json").read_text())["scenarios"]}
    assert by_name["dice-partition"]["ok"] and not by_name["bad"]["ok"]
    return by_name["bad"]


@pytest.mark.parametrize("task, params, tol, error", [
    ("window", {"x": "Z", "y": "Y", "at": math.nan}, None, "window at"),
    ("window", {"x": "Z", "y": "Y", "grid": [math.nan, 1, 5]}, None, "window grid"),
    ("window", {"x": "Z", "y": "Y", "grid": [0, math.inf, 5]}, None, "window grid"),
    ("window", {"x": "Z", "y": "Y", "at": 0, "schedule": {"eps0": math.nan}}, None,
     "window schedule: eps0"),
    ("window", {"x": "Z", "y": "Y", "at": 0}, math.nan, "scenario tol"),
    ("window", {"x": "Z", "y": "Y", "at": 0}, -1e-6, "scenario tol"),
    ("factorize", {"g": "Z", "y": "Y", "levels": [0, math.nan]}, None, "factorize levels"),
    ("factorize", {"g": "Z", "y": "Y", "levels": [0], "band": -0.05}, None, "factorize band"),
])
def test_run_reports_task_numbers_that_mean_nothing(tmp_path, task, params, tol, error):
    space = str(SCENARIO_DIR / "spaces" / "bivariate-05.json")
    bad = _run_beside_dice(tmp_path, {"schema_version": 1, "task": task, "space": space,
                                      "params": params, "tol": tol})
    assert bad["error"].startswith(f"ConfigError: {error}")


# A grid with a variable that is not an axis, and 16 atoms with 13 singleton
# generators and two overlapping ones.
GRID_WITH_SUM = {"schema_version": 1, "kind": "grid2d", "axes": ["z", "y"],
                 "density": {"family": "bivariate-normal", "rho": 0.5}, "nodes": [101, 101],
                 "variables": {"Z": {"coord": "z"}, "Y": {"coord": "y"},
                               "S": {"expr": "y + z"}}}
ATOMS_16 = {"schema_version": 1, "kind": "discrete", "atoms": [[k, 0.0625] for k in range(16)],
            "variables": {"X": {"identity": True}},
            "partitions": {"singletons": [{"atoms": [k]} for k in range(13)],
                           "overlapping": [{"name": "A", "atoms": [0, 1, 2]},
                                           {"name": "B", "atoms": [2, 3]}]}}


@pytest.mark.parametrize("task, space, params, error", [
    ("window", GRID_WITH_SUM, {"x": "Z", "y": "S", "at": 0.0},
     "window conditioning on a grid requires a coordinate variable"),
    ("factorize", GRID_WITH_SUM, {"g": "Z", "y": "S", "levels": [0.0]},
     "level bands for 'S' need an explicit band width"),
    ("verify", ATOMS_16, {"x": "X", "candidate": "X", "generators": "overlapping"},
     "generators 'A' and 'B' overlap with mass 0.0625"),
])
def test_run_reports_an_unsupported_query(tmp_path, task, space, params, error):
    bad = _run_beside_dice(tmp_path, {"schema_version": 1, "task": task, "space": space,
                                      "params": params})
    assert bad["error"].startswith(f"UnsupportedQuery: {error}")


def test_run_verifies_thirteen_singleton_generators(tmp_path):
    doc = tmp_path / "singletons.json"
    doc.write_text(json.dumps({"schema_version": 1, "task": "verify", "space": ATOMS_16,
                               "params": {"x": "X", "candidate": "X",
                                          "generators": "singletons"}}))
    assert cli.run_paths([doc], tmp_path / "o")["ok"]
    report = json.loads((tmp_path / "o" / "singletons.json").read_text())
    assert report["passed"] is True
    assert sum(c["kind"] == "identity" for c in report["checks"]) == 1 + 13 + 1


def test_cli_factorize_off_the_axes_without_a_band_exits_1(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps(GRID_WITH_SUM))
    rc = cli.main(["factorize", "--space", str(space), "--g", "Z", "--y", "S", "--levels", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("UnsupportedQuery: level bands for 'S'")


def test_compare_a_null_value_gives_a_nan_diff_and_fails():
    a = {"grid": [0.0, 1.0, 2.0], "values": [1.0, None, 3.0]}
    b = {"grid": [0.0, 1.0, 2.0], "values": [1.0, 2.0, 3.0]}
    doc = cli.compare(a, b, tol=1.0)
    assert doc["diffs"][0] == 0.0 and math.isnan(doc["diffs"][1]) and doc["diffs"][2] == 0.0
    assert not doc["passed"]


@pytest.mark.parametrize("argv", [
    ["window", "--space", str(SCENARIO_DIR / "spaces" / "bivariate-05.json"),
     "--x", "Z", "--y", "Y", "--grid", "0:1:0"],
    ["factorize", "--space", str(SCENARIO_DIR / "spaces" / "coin-pair.json"),
     "--g", "sum_given_first", "--y", "first", "--levels", "0,x"],
])
def test_inline_flag_that_does_not_convert_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == "ConfigError"


@pytest.mark.parametrize("flags, message", [
    (["--grid", "0:nan:5"], "--grid must be a finite number, got 'nan'"),
    (["--at", "0", "--tol", "nan"], "scenario tol must be a finite number >= 0, got nan"),
])
def test_inline_number_that_means_nothing_exits_2(flags, message, capsys):
    argv = ["window", "--space", str(SCENARIO_DIR / "spaces" / "bivariate-05.json"),
            "--x", "Z", "--y", "Y", *flags]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["message"] == message


def test_inline_window_writes_the_bytes_of_its_scenario(tmp_path, capsys):
    space = str(SCENARIO_DIR / "spaces" / "bivariate-05.json")
    out = tmp_path / "a.json"
    assert cli.main(["window", "--space", space, "--x", "Z", "--y", "Y", "--at", "0.5",
                     "--out", str(out)]) == 0
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"schema_version": 1, "task": "window", "name": "a",
                               "space": space, "params": {"x": "Z", "y": "Y", "at": 0.5}}))
    assert cli.main(["run", str(doc), "--outdir", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert (tmp_path / "o" / "a.json").read_bytes() == out.read_bytes()


def test_window_at_csv_has_one_row_per_trace_step(tmp_path, capsys):
    doc = tmp_path / "w.json"
    doc.write_text(json.dumps({"schema_version": 1, "task": "window", "name": "w",
                               "space": str(SCENARIO_DIR / "spaces" / "bivariate-05.json"),
                               "params": {"x": "Z", "y": "Y", "at": 0.5}}))
    assert cli.main(["run", str(doc), "--outdir", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    header, *rows = (tmp_path / "o" / "w.csv").read_text().splitlines()
    assert header == "eps,estimate,se,n,prob"
    steps = json.loads((tmp_path / "o" / "w.json").read_text())["steps"]
    assert len(steps) >= 2
    assert [[None if v == "" else float(v) for v in row.split(",")] for row in rows] == [
        [s["eps"], s["estimate"], s["se"], s["n"], s["prob"]] for s in steps]


def _grid_with_cell(interval):
    return {"schema_version": 1, "kind": "grid1d", "density": {"family": "normal"},
            "nodes": 101, "variables": {"Y": {"coord": "y"}},
            "partitions": {"p": [{"name": "low", "interval": interval}]}}


def _grid(density, kind="grid1d"):
    return {"schema_version": 1, "kind": kind, "density": density,
            "nodes": 101 if kind == "grid1d" else [51, 51]}


def _sampler(family, params):
    return {"schema_version": 1, "kind": "sampler", "family": family, "params": params,
            "seed": 1, "budget": 100}


def _discrete(atoms, variables=None):
    return {"schema_version": 1, "kind": "discrete", "atoms": atoms,
            "variables": variables or {}}


@pytest.mark.parametrize("space, error", [
    (_grid_with_cell({"var": "Y", "hi": "abc"}), "partition cell 'low' interval hi"),
    (_grid_with_cell({"var": "Y", "lo": None}), "partition cell 'low' interval lo"),
    (_grid_with_cell({"hi": 0.0}), "partition cell 'low' interval var"),
    (_discrete([[1, "x"]]), "discrete atom 1 weight"),
    (_discrete([[1, 0.5, 0.5]]), "discrete atom [atom, weight]"),
    (_discrete([[1, 0.5], [2, 0.5]], {"X": {"table": {"1": "a", "2": 1}}}),
     "variable 'X' table value"),
    ({"schema_version": 1, "kind": "sampler", "family": "nope", "seed": 1},
     "unknown sampler family 'nope'"),
    (_sampler("bivariate-normal", {"rho": 2}),
     "sampler params rho must be a finite number in [-1, 1], got 2"),
    (_sampler("gaussian-sum", {"var_x": "abc"}), "sampler params var_x must be a number"),
    (_sampler("gaussian-sum", {"var_noise": -1}),
     "sampler params var_noise must be a finite number >= 0, got -1"),
    (_sampler("gaussian-sum", [1.0, 1.0]), "sampler params must be an object"),
    (_grid({"family": "normal", "var": None}), "grid1d density var must be a number, got None"),
    (_grid({"family": "mixture", "components": [{"weight": 1, "mean": math.inf}]}),
     "mixture component mean must be a finite number"),
    (_grid({"family": "gaussian-sum", "var_x": "abc"}, "grid2d"),
     "grid2d density var_x must be a number"),
    (_grid({"family": "bivariate-normal", "rho": -1.5}, "grid2d"),
     "grid2d density rho must be a finite number in [-1, 1]"),
    (_grid("normal"), "grid1d density must be an object"),
    (_discrete([[1, 1.0]], ["Y"]), "variables must be an object"),
    (_discrete([[1, 1.0]], {"Y": "omega"}), "variable 'Y' must be an object"),
    (_discrete([[1, 1.0]], {"Y": {"expr": 5}}), "variable 'Y' expr must be a string"),
    ({**_grid_with_cell({"var": "Y"}), "partitions": {"p": 5}}, "partition 'p' must be a list"),
    ({**_grid_with_cell({"var": "Y"}), "partitions": {"p": ["low"]}},
     "partition 'p' cell 1 must be an object"),
    (_grid_with_cell(5), "partition cell 'low' interval must be an object"),
    (_grid({"family": "bivariate-normal", "rh": 0.9}, "grid2d"),
     "unknown grid2d density key 'rh'; expected one of ['family', 'rho']"),
    (_grid({"family": "normal", "components": []}), "unknown grid1d density key 'components'"),
    (_grid({"family": "mixture", "components": [{"weight": 1, "vr": 2}]}),
     "unknown mixture component key 'vr'; expected one of ['mean', 'var', 'weight']"),
    (_sampler("bivariate-normal", {"rh": 0.9}),
     "unknown sampler params key 'rh'; expected one of ['rho']"),
])
def test_run_reports_bad_config_field(tmp_path, capsys, space, error):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "task": "partition", "space": space,
                               "params": {"x": "Y", "partition": "p"}}))
    outdir = tmp_path / "o"
    rc = cli.main(["run", str(bad), str(SCENARIO_DIR / "dice-partition.json"),
                   "--outdir", str(outdir)])
    assert rc == 1
    capsys.readouterr()
    assert (outdir / "dice-partition.json").exists()
    by_name = {e["name"]: e for e in json.loads((outdir / "summary.json").read_text())["scenarios"]}
    assert by_name["dice-partition"]["ok"]
    assert not by_name["bad"]["ok"]
    assert by_name["bad"]["error"].startswith(f"ConfigError: {error}")


def test_run_reports_a_directory_as_failed(tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    outdir = tmp_path / "o"
    rc = cli.main(["run", str(folder), str(SCENARIO_DIR / "dice-partition.json"),
                   "--outdir", str(outdir)])
    assert rc == 1
    capsys.readouterr()
    assert (outdir / "dice-partition.json").exists()
    by_name = {e["name"]: e for e in json.loads((outdir / "summary.json").read_text())["scenarios"]}
    assert by_name["dice-partition"]["ok"]
    assert by_name["folder"]["error"].startswith(f"ConfigError: scenario cannot be read: {folder}")


def test_cli_compare_exit_codes(tmp_path, capsys):
    a = tmp_path / "a.json"
    assert cli.main(["window", "--space", str(SCENARIO_DIR / "spaces" / "bivariate-05.json"),
                     "--x", "Z", "--y", "Y", "--at", "0.5", "--out", str(a)]) == 0
    same = tmp_path / "same.json"
    assert cli.main(["compare", str(a), str(a), "--tol", "0", "--out", str(same)]) == 0
    doc = json.loads(same.read_text())
    assert doc["passed"] and doc["max_diff"] == 0.0
    shifted = json.loads(a.read_text())
    shifted["steps"][-1]["estimate"] += 1e-3
    b = tmp_path / "b.json"
    b.write_text(json.dumps(shifted))
    assert cli.main(["compare", str(a), str(b)]) == 1
    capsys.readouterr()
    (tmp_path / "text.json").write_text("not json")
    for name, message in (("nope.json", "not found"), ("text.json", "is not valid JSON")):
        assert cli.main(["compare", str(a), str(tmp_path / name)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"artifact {message}: {tmp_path / name}")


@pytest.mark.parametrize("doc_a, doc_b, message", [
    ({"schema_version": 1, "kind": "window_trace"}, None, "cannot be read: KeyError('steps')"),
    ({"schema_version": 1, "grid": [0, 1], "values": [1]},
     {"schema_version": 1, "grid": [0, 1], "values": [1, 9]}, "has 1 values on 2 grid nodes"),
], ids=["trace-without-steps", "values-shorter-than-grid"])
def test_cli_compare_rejects_a_malformed_artifact(tmp_path, capsys, doc_a, doc_b, message):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc_a))
    b.write_text(json.dumps(doc_b or doc_a))
    assert cli.main(["compare", str(a), str(b)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)
    assert err["error"] == "GridMismatch" and err["message"].endswith(message)


def test_run_reports_a_variable_reading_a_missing_name(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema_version": 1, "name": "bad", "task": "window",
        "space": {"schema_version": 1, "kind": "grid1d", "axis": "y",
                  "density": {"family": "normal"}, "nodes": 101,
                  "variables": {"Y": {"coord": "y"}, "Q": {"expr": "q * 2"}}},
        "params": {"x": "Q", "y": "Y", "at": 0.0}}))
    outdir = tmp_path / "o"
    rc = cli.main(["run", str(bad), str(SCENARIO_DIR / "dice-partition.json"),
                   "--outdir", str(outdir)])
    assert rc == 1
    capsys.readouterr()
    assert (outdir / "dice-partition.json").exists()
    summary = json.loads((outdir / "summary.json").read_text())
    by_name = {e["name"]: e for e in summary["scenarios"]}
    assert by_name["dice-partition"]["ok"] and not by_name["bad"]["ok"]
    assert by_name["bad"]["error"].startswith("UndefinedPredicate: variable 'Q' failed")


def test_cli_density_expect_reading_a_missing_name(capsys):
    rc = cli.main(["density", "--joint", str(SCENARIO_DIR / "spaces" / "bivariate-05.json"),
                   "--at", "1.0", "--expect", "y * 2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") <= 1
    assert json.loads(err)["error"].startswith("UndefinedPredicate: expect 'y * 2' failed")


@pytest.mark.parametrize("name", ["gaussian-sum-grid", "bivariate-05"])
def test_grid_construction_holds_one_grid_sized_array(name):
    # the density is filled in place and its mass read off 1D marginals:
    # the peak is the density's own bytes plus 1D arrays
    path = SCENARIO_DIR / "spaces" / f"{name}.json"
    load_space(path)  # warm: any first-call allocations of the loader
    tracemalloc.start()
    try:
        space = load_space(path).space
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * space.values.nbytes


def _grid2d(density: dict, nodes=(121, 161)):
    space = build_space({"kind": "grid2d", "axes": ["x", "y"], "density": density,
                         "nodes": list(nodes)})
    u, v = np.meshgrid(*space.grid, indexing="ij", sparse=True)
    return space.values, u, v


def _pdf(x, var):
    return np.exp(-0.5 * x**2 / var) / math.sqrt(2.0 * math.pi * var)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_bivariate_normal_fill_is_the_closed_form_bit_for_bit(rho):
    values, u, v = _grid2d({"family": "bivariate-normal", "rho": rho})
    det = 1.0 - rho * rho
    ref = np.exp(-0.5 * (u * u - 2.0 * rho * u * v + v * v) / det) \
        / (2.0 * math.pi * math.sqrt(det))
    assert np.array_equal(values, ref)


def test_gaussian_sum_fill_is_the_closed_form_bit_for_bit():
    values, u, v = _grid2d({"family": "gaussian-sum", "var_x": 2.0, "var_noise": 0.5})
    assert np.array_equal(values, _pdf(u, 2.0) * _pdf(v - u, 0.5))


@pytest.mark.parametrize("key", ["depht", "factr", "factor"])
def test_schedule_rejects_an_unknown_key(key):
    scn = load_scenario({"schema_version": 1, "task": "window",
                         "space": str(SCENARIO_DIR / "spaces" / "bivariate-05.json"),
                         "params": {"x": "Z", "y": "Y", "at": 0, "schedule": {key: 3}}})
    with pytest.raises(ConfigError) as exc:
        scn.param("schedule")
    assert str(exc.value) == (f"unknown window schedule key {key!r}; "
                              "expected one of ['depth', 'eps0']")


@pytest.mark.parametrize("cfg, message", [
    ({"kind": "grid1d", "density": {"family": "normal"}, "node": 11, "quadtol": 1e-3},
     "unknown grid1d space key 'node'; expected one of ['axis', 'density', 'kind', 'name', "
     "'nodes', 'partitions', 'quad_tol', 'range', 'schema_version', 'variables']"),
    ({"kind": "sampler", "seed": 1, "budjet": 10},
     "unknown sampler space key 'budjet'; expected one of ['budget', 'family', 'kind', "
     "'name', 'params', 'partitions', 'schema_version', 'seed', 'variables']"),
    ({"kind": "grid2d", "axis": "y"}, "unknown grid2d space key 'axis'; expected one of "
     "['axes', 'density', 'kind', 'name', 'nodes', 'partitions', 'quad_tol', 'ranges', "
     "'schema_version', 'variables']"),
    ({"kind": "discrete", "atoms": [[1, 1.0]], "weights": [1.0]},
     "unknown discrete space key 'weights'; expected one of ['atoms', 'kind', 'name', "
     "'partitions', 'schema_version', 'variables']"),
])
def test_space_rejects_an_unknown_key(cfg, message):
    # a misspelt key ran on its default: 1601 nodes, or 100,000 rows
    with pytest.raises(ConfigError) as exc:
        build_space(cfg)
    assert str(exc.value) == message


@pytest.mark.parametrize("path", sorted((SCENARIO_DIR / "spaces").glob("*.json")),
                         ids=lambda path: path.stem)
def test_every_shipped_space_config_loads(path):
    bundle = load_space(path)
    assert bundle.variables
    # a label is accepted, as the benchmark's configs carry one
    cfg = json.loads(path.read_text(encoding="utf-8"))
    assert type(build_space(dict(cfg, name="label"))) is type(bundle.space)


@pytest.mark.parametrize("load, doc, message", [
    (build_space, {"kind": "grid3d"}, "unknown space kind 'grid3d'"),
    (build_space, {"kind": "discrete"},
     "discrete space needs an 'atoms' list of [atom, weight]"),
    (load_space, {"schema_version": 1, "kind": "discrete", "atoms": [[1, 1.0]],
                  "variables": {"V": {"coords": "y"}}},
     "variable 'V' needs one of coord/identity/table/expr"),
    (lambda doc: load_space(doc).partition("p"),
     {"schema_version": 1, "kind": "discrete", "atoms": [[1, 1.0]],
      "partitions": {"p": [{"name": "A", "atom": [1]}]}},
     "partition cell needs 'atoms', 'interval', or 'expr': {'name': 'A', 'atom': [1]}"),
    (load_scenario, {"schema_version": 1, "task": "window"},
     "scenario needs a 'space' (path or inline config)"),
    (build_space, {"kind": "grid2d", "density": {"family": "normal"}},
     "unknown 2D density family 'normal'"),
    (build_space, {"kind": "grid1d", "density": {"family": "uniform"}},
     "density family 'uniform' needs an explicit range"),
    (build_space, {"kind": "grid2d", "density": {"family": "uniform"}},
     "density family 'uniform' needs explicit ranges"),
], ids=["space-kind", "no-atoms", "variable", "partition-cell", "no-space",
        "2d-family", "uniform-1d", "uniform-2d"])
def test_config_errors_name_what_is_missing(load, doc, message):
    with pytest.raises(ConfigError) as exc:
        load(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("field, value", [
    ("out", "../../escaped-out"), ("name", "../../escaped-name"), ("out", "sub/dir"),
    ("name", "back\\slash"), ("out", ""), ("name", ""), ("out", "."), ("name", ".."),
])
def test_a_scenario_name_or_out_that_is_no_plain_file_name_writes_nothing(tmp_path, capsys,
                                                                           field, value):
    # the artifact basename is the scenario's out or name: a path would leave --outdir
    work = tmp_path / "a" / "b"
    work.mkdir(parents=True)
    bad = work / "s.json"
    bad.write_text(json.dumps({"schema_version": 1, "task": "partition",
                               "space": str(SCENARIO_DIR / "spaces" / "dice.json"),
                               "params": {"x": "X", "partition": "halves"}, field: value}))
    before = sorted(tmp_path.rglob("*"))
    outdir = work / "out"
    rc = cli.main(["run", str(bad), "--outdir", str(outdir)])
    assert rc == 1
    capsys.readouterr()
    written = sorted(set(tmp_path.rglob("*")) - set(before))
    assert written == [outdir, outdir / "summary.json"]
    [entry] = json.loads((outdir / "summary.json").read_text())["scenarios"]
    assert entry["name"] == "s" and not entry["ok"] and entry["artifacts"] == []
    assert entry["error"] == f"ConfigError: scenario {field} must be a plain file name, " \
                             f"got {value!r}"


@pytest.mark.parametrize("doc, error", [
    ({"tolerance": 1e-3, "params": {"x": "Z", "y": "Y", "at": 0.5}},
     "unknown scenario key 'tolerance'"),
    ({"params": {"x": "Z", "y": "Y", "at": 0.5, "schedul": {"eps0": 0.1}}},
     "unknown window param key 'schedul'"),
], ids=["scenario-key", "task-param"])
def test_an_unknown_scenario_key_or_task_param_is_a_config_error(tmp_path, doc, error):
    space = str(SCENARIO_DIR / "spaces" / "bivariate-05.json")
    bad = _run_beside_dice(tmp_path, {"schema_version": 1, "task": "window", "space": space,
                                      **doc})
    assert bad["error"].startswith(f"ConfigError: {error}; expected one of")


def test_every_inline_subcommand_document_loads(tmp_path, monkeypatch):
    # each inline subcommand's flags name only keys and params its task reads
    loaded = []
    monkeypatch.setattr(cli, "_compute", lambda scn: loaded.append(scn.task) or (
        {"ok": True}, {}, ([], [])))
    monkeypatch.setattr(cli, "write_csv", lambda *args: None)
    spaces_dir = SCENARIO_DIR / "spaces"
    for argv in (
            ["window", "--space", str(spaces_dir / "bivariate-05.json"), "--x", "Z", "--y", "Y",
             "--grid", "-1:1:3", "--seed", "1", "--tol", "1e-5"],
            ["density", "--joint", str(spaces_dir / "bivariate-05.json"), "--at", "0",
             "--expect", "z", "--emit-density", str(tmp_path / "d.csv")],
            ["factorize", "--space", str(spaces_dir / "coin-pair.json"), "--g", "sum",
             "--y", "first", "--levels", "0,1", "--band", "0.1"],
            ["paradox", "--budget", "1000", "--no-control", "--out", str(tmp_path / "p.json")],
            ["verify", "--space", str(spaces_dir / "d8-null.json"), "--x", "X",
             "--candidate", "candidate_17_on_null", "--generators", "null-algebra"]):
        assert cli.main(argv) == 0, argv
    assert loaded == ["window", "density", "factorize", "paradox", "verify"]


@pytest.mark.parametrize("kind", ["family", "verification"])
def test_cli_compare_without_a_comparable_series_exits_2(tmp_path, capsys, kind):
    a = tmp_path / "a.json"
    if kind == "family":  # a window trace has no families
        assert cli.main(["window", "--space", str(SCENARIO_DIR / "spaces" / "bivariate-05.json"),
                         "--x", "Z", "--y", "Y", "--at", "0.5", "--out", str(a)]) == 0
        argv, message = ["--family-a", "via_y"], "no family 'via_y' in this artifact"
    else:
        assert cli.main(["verify", "--space", str(SCENARIO_DIR / "spaces" / "d8-null.json"),
                         "--x", "X", "--candidate", "candidate_17_on_null",
                         "--generators", "null-algebra", "--out", str(a)]) == 0
        argv = []
        message = "artifact kind 'verification_report' carries no comparable series"
    capsys.readouterr()
    assert cli.main(["compare", str(a), str(a), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "GridMismatch", "message": message}
