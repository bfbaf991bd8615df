import weakref

import numpy as np
import pytest

import condpoint as cp
from condpoint import pathology, spaces
from condpoint.errors import DegenerateA, FamilyNotShrinking, NotNull
from condpoint.pathology import (
    ARBITRARY_NULL_VALUE,
    four_set_algebra,
    ratio_normal_instance,
)
from condpoint.window import Schedule

import oracles


def test_too_coarse_candidates_verify_and_differ(d8_null):
    space, X, A = d8_null
    natural, planted = cp.too_coarse_demo(space, X, A)
    gens = four_set_algebra(space, A)
    for cand in (natural, planted):
        report = cp.verify_cond_exp(space, X, cand, gens)
        assert report.passed
        assert all(e.residual == 0.0 for e in report.entries)
    assert natural.fn(0) == cp.expectation(space, X).value == 4.5
    assert planted.fn(0) == ARBITRARY_NULL_VALUE
    assert natural.fn(0) != planted.fn(0)
    # off the null event the two candidates agree everywhere
    assert all(natural.fn(w) == planted.fn(w) for w in space.atoms if w != 0)


def test_too_coarse_identity_residuals_kill_null_term(d8_null):
    space, X, A = d8_null
    _, planted = cp.too_coarse_demo(space, X, A)
    assert cp.indicator_moment(space, X, A).value == 0.0
    assert cp.indicator_moment(space, planted, A).value == 0.0


def test_too_coarse_empty_null_event(d8_null):
    space, X, _ = d8_null
    empty = cp.Event.from_atoms(set(), name="empty")
    natural, planted = cp.too_coarse_demo(space, X, empty)
    # the disagreement set is empty: candidates coincide at every atom
    assert all(natural.fn(w) == planted.fn(w) for w in space.atoms)


def test_too_coarse_on_an_empty_open_interval_conditions_on_every_atom():
    space = cp.DiscreteAtoms.uniform((-1, 0, 1))
    X = cp.RandomVariable("X", lambda w: float(w))
    A = cp.Event.interval(X, 0.0, 1.0)
    natural, planted = cp.too_coarse_demo(space, X, A)
    # not-A holds all three atoms, so the value off A is E[X] = 0
    assert [natural.fn(w) for w in space.atoms] == [0.0, 0.0, 0.0]
    for cand in (natural, planted):
        assert cp.verify_cond_exp(space, X, cand, four_set_algebra(space, A)).passed


def test_too_coarse_rejects_positive_event(d8_null):
    space, X, _ = d8_null
    with pytest.raises(NotNull):
        cp.too_coarse_demo(space, X, cp.Event.from_atoms({3}))


def test_too_fine_witnesses_two_null_atoms():
    space = cp.DiscreteAtoms(("p", "q", 1, 2), np.array([0.0, 0.0, 0.5, 0.5]))
    table = {"p": 0.0, "q": 1.0, 1: 5.0, 2: 6.0}
    X = cp.RandomVariable("X", lambda w: table[w])
    rep = cp.too_fine_demo(space, X, cp.Event.from_atoms({"p", "q"}, name="A"))
    assert rep.witnesses == [0.0, 1.0]
    assert len(rep.points) == 2


def test_too_fine_degenerate_when_constant():
    space = cp.DiscreteAtoms(("p", "q", 1, 2), np.array([0.0, 0.0, 0.5, 0.5]))
    X = cp.RandomVariable("X", lambda w: 3.0 if isinstance(w, str) else float(w))
    with pytest.raises(DegenerateA):
        cp.too_fine_demo(space, X, cp.Event.from_atoms({"p", "q"}))


def test_too_fine_on_null_line_of_square(uniform_square):
    # A = {y = 0.5} has zero area; X = z sweeps the whole unit range on it
    y = cp.coordinate("y")
    z = cp.coordinate("z")
    A = cp.Event.interval(y, 0.5, 0.5, name="y=1/2")
    rep = cp.too_fine_demo(uniform_square, z, A)
    assert min(rep.witnesses) <= 0.01 and max(rep.witnesses) >= 0.99
    assert rep.band_width is not None


def test_paradox_small_budget(paradox_oracle):
    inst = ratio_normal_instance(seed=123, budget=2_000_000)
    rep = cp.borel_kolmogorov(inst["space"], inst["X"], inst["families"],
                              inst["schedule"], description=inst["description"])
    assert set(rep.traces) == {"via_y", "via_ratio"}
    for tr in rep.traces.values():
        assert tr.verdict == "Converged"
    oracle_gap = paradox_oracle["gap_second_moment"]
    assert abs(rep.discrepancy - oracle_gap) <= 3e-2
    assert rep.discrepancy > 10.0 * rep.combined_tol


def test_paradox_limits_match_weighted_density_oracle(paradox_oracle):
    # oracle values were produced by quadrature of the weighted densities
    assert abs(paradox_oracle["via_y"]["limit_second_moment"] - 1.0) <= 1e-10
    assert abs(paradox_oracle["via_ratio"]["limit_second_moment"] - 2.0) <= 1e-10
    fresh = oracles.weighted_normal_moment(abs, lambda z: z * z)
    assert abs(fresh - paradox_oracle["via_ratio"]["limit_second_moment"]) <= 1e-10
    assert abs(paradox_oracle["via_ratio"]["limit_abs_moment"]
               - paradox_oracle["reference"]["sqrt_pi_over_2"]) <= 1e-10
    assert abs(paradox_oracle["via_y"]["limit_abs_moment"]
               - paradox_oracle["reference"]["sqrt_2_over_pi"]) <= 1e-10


def test_paradox_finite_eps_estimates_track_oracle(paradox_oracle):
    inst = ratio_normal_instance(seed=7, budget=4_000_000)
    rep = cp.borel_kolmogorov(inst["space"], inst["X"], inst["families"],
                              inst["schedule"])
    tr = rep.traces["via_ratio"]
    for step in tr.steps:
        want = paradox_oracle["via_ratio"]["finite_eps_second_moment"][repr(step.eps)]
        assert abs(step.estimate - want) <= 5.0 * step.se


def test_control_families_agree(paradox_oracle):
    inst = ratio_normal_instance(seed=123, budget=2_000_000)
    rep = cp.borel_kolmogorov(inst["space"], inst["X"], inst["control_families"],
                              inst["schedule"])
    assert rep.discrepancy <= rep.combined_tol


def test_paradox_stable_across_seeds():
    gaps = []
    tols = []
    for seed in (11, 12, 13):
        inst = ratio_normal_instance(seed=seed, budget=2_000_000)
        rep = cp.borel_kolmogorov(inst["space"], inst["X"], inst["families"],
                                  inst["schedule"])
        gaps.append(rep.discrepancy)
        tols.append(rep.combined_tol)
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(gaps[i] - gaps[j]) <= tols[i] + tols[j]
        assert gaps[i] > 10.0 * tols[i]


def test_paradox_stable_under_schedule_refinement():
    # one level deeper in eps moves the gap by less than the tolerances
    inst = ratio_normal_instance(seed=123, budget=2_000_000)
    coarse = cp.borel_kolmogorov(inst["space"], inst["X"], inst["families"],
                                 Schedule(eps0=0.4, depth=4))
    fine = cp.borel_kolmogorov(inst["space"], inst["X"], inst["families"],
                               Schedule(eps0=0.4, depth=5))
    assert abs(coarse.discrepancy - fine.discrepancy) <= \
        coarse.combined_tol + fine.combined_tol
    assert fine.discrepancy > 10.0 * fine.combined_tol


def test_paradox_deterministic_for_fixed_seed():
    a = ratio_normal_instance(seed=99, budget=500_000)
    b = ratio_normal_instance(seed=99, budget=500_000)
    ra = cp.borel_kolmogorov(a["space"], a["X"], a["families"], a["schedule"])
    rb = cp.borel_kolmogorov(b["space"], b["X"], b["families"], b["schedule"])
    assert ra.discrepancy == rb.discrepancy
    assert [s.estimate for s in ra.traces["via_ratio"].steps] == \
        [s.estimate for s in rb.traces["via_ratio"].steps]


def test_family_not_shrinking_detected():
    inst = ratio_normal_instance(seed=5, budget=200_000)
    y = cp.RandomVariable("y", lambda c: c["y"], coord="y")
    growing = cp.ApproximationFamily("growing",
                                     lambda e: cp.Event.window(y, 0.0, 0.4 / e))
    with pytest.raises(FamilyNotShrinking):
        cp.borel_kolmogorov(inst["space"], inst["X"],
                            (growing,), Schedule(eps0=0.4, depth=3))


def test_family_losing_positivity_detected(uniform_square):
    y = cp.coordinate("y")
    # windows around a point outside the support go null immediately
    off = cp.ApproximationFamily("off-support",
                                 lambda e: cp.Event.window(y, 5.0, e))
    with pytest.raises(FamilyNotShrinking):
        cp.borel_kolmogorov(uniform_square, cp.coordinate("z"), (off,),
                            Schedule(eps0=0.5, depth=4))


def test_paradox_report_json():
    inst = ratio_normal_instance(seed=21, budget=500_000)
    rep = cp.borel_kolmogorov(inst["space"], inst["X"], inst["families"],
                              inst["schedule"], description=inst["description"])
    doc = rep.to_json_dict()
    assert doc["kind"] == "paradox_report"
    assert set(doc["families"]) == {"via_y", "via_ratio"}
    assert doc["pair"] == ["via_y", "via_ratio"]


def _main_and_control(inst):
    return [(inst["families"], inst["description"]),
            (inst["control_families"], inst["control_description"])]


def _count_calls(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_paradox_plan_reproduces_one_call_per_report(seed, monkeypatch):
    inst = ratio_normal_instance(seed=seed, budget=400_000)
    # a fresh generator per first pass
    draws = _count_calls(monkeypatch, spaces, "_generator")
    traces = _count_calls(monkeypatch, pathology, "shrink_trace")
    reports = cp.paradox_reports(inst["space"], inst["X"], _main_and_control(inst),
                                 inst["schedule"])
    # via_y on substream 0 is drawn and traced once for both reports;
    # via_ratio and via_y_narrow share one pass of substream 1
    assert (len(draws), len(traces)) == (2, 3)
    alone = [cp.borel_kolmogorov(inst["space"], inst["X"], families, inst["schedule"],
                                 description=description)
             for families, description in _main_and_control(inst)]
    assert (len(draws), len(traces)) == (2 + 4, 3 + 4)
    assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in alone]
    assert reports[0].traces["via_y"] is reports[1].traces["via_y"]


def test_no_paradox_substream_ever_holds_columns(monkeypatch):
    # one streamed pass per substream answers every window, and keeps no
    # rows; the traces read those answers and draw nothing
    inst = ratio_normal_instance(seed=3, budget=400_000)
    traced = []
    original = pathology.shrink_trace

    def watched(space, *args, **kwargs):
        traced.append(weakref.ref(space))
        trace = original(space, *args, **kwargs)
        assert "columns" not in space._cache
        return trace

    monkeypatch.setattr(pathology, "shrink_trace", watched)
    columns = _count_calls(monkeypatch, cp.Sampler, "columns")
    whole = _count_calls(monkeypatch, spaces, "_columns")
    passes = _count_calls(monkeypatch, cp.Sampler, "cond_each")
    cp.paradox_reports(inst["space"], inst["X"], _main_and_control(inst), inst["schedule"])
    assert len(traced) == 3 and (len(passes), columns, whole) == (2, [], [])
    assert all(ref() is None for ref in traced)  # no substream outlives the call
