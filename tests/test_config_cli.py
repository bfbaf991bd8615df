import json
import math

import pytest

import condpoint as cp
from condpoint import cli
from condpoint.config import load_scenario, load_space
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


def test_run_parallel_matches_sequential(tmp_path):
    paths = [SCENARIO_DIR / "dice-partition.json", SCENARIO_DIR / "coin-factorize.json"]
    seq = cli.run_paths(paths, tmp_path / "seq")
    par = cli.run_paths(paths, tmp_path / "par", parallel=True)
    assert par["ok"] and par["scenarios"] == seq["scenarios"]
    for name in ("dice-partition.json", "coin-factorize.json", "summary.json"):
        assert (tmp_path / "par" / name).read_bytes() == \
            (tmp_path / "seq" / name).read_bytes()


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
    ("grid1d", "nodes", 1, "grid1d space: grid needs at least 2 nodes"),
])
def test_bad_grid_field_is_a_config_error(kind, field, value, match):
    cfg = {"schema_version": 1, "kind": kind, "nodes": 101 if kind == "grid1d" else [101, 101],
           "density": {"family": "normal" if kind == "grid1d" else "bivariate-normal"}}
    cfg[field] = value
    with pytest.raises(ConfigError, match=match):
        load_space(cfg)


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
