"""Hull-restricted sampler streams keep exactly the full stream's rows.

A built-in family draws its last column block by block, and a restricted
stream keeps only the rows inside an interval event.  Both must give the
rows of one whole-array draw, in the same order, bit for bit.
"""

import threading

import numpy as np
import pytest

import condpoint as cp
from condpoint import spaces
from condpoint.errors import CondpointError, OutsideHull
from condpoint.pathology import ratio_normal_instance
from condpoint.window import shrink_trace

N = 300_000
SEED = 20260811
PARAMS = {"rho": 0.6, "var_x": 2.0, "var_noise": 0.5}


def _reference(family, rng, n, params):
    """Every family as one whole-array draw, written out in plain numpy."""
    if family == "standard-normal-pair":
        return {"z": rng.standard_normal(n), "y": rng.standard_normal(n)}
    if family == "bivariate-normal":
        rho = params["rho"]
        z = rng.standard_normal(n)
        return {"z": z, "y": rho * z + np.sqrt(1.0 - rho * rho) * rng.standard_normal(n)}
    if family == "gaussian-sum":
        x = np.sqrt(params["var_x"]) * rng.standard_normal(n)
        eps = np.sqrt(params["var_noise"]) * rng.standard_normal(n)
        return {"x": x, "eps": eps, "y": x + eps}
    if family == "uniform-square":
        return {"z": rng.random(n), "y": rng.random(n)}
    return _custom_draw(rng, n, params)


def _custom_draw(rng, n, params):
    return {"z": rng.exponential(size=n), "y": rng.standard_normal(n)}


FAMILIES = [*spaces.DRAW_FAMILIES, "custom"]

# (label, variable on the frame, hull pieces) per family: one column, and
# the last column over a head column
HULLS = {
    "one-column": (lambda c: c["y"], lambda fam: (0.2, 0.55) if fam == "uniform-square"
                   else (-0.3, 0.45)),
    "two-column": (lambda c: c["y"] / c["x" if "x" in c else "z"], lambda fam: (-0.4, 0.4)),
}


def _sampler(family):
    if family == "custom":
        return cp.Sampler("custom", PARAMS, seed=SEED, budget=N, spawn=(3,), draw=_custom_draw)
    return cp.Sampler(family, PARAMS, seed=SEED, budget=N, spawn=(3,))


def _reference_columns(family):
    rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(3,)))
    return _reference(family, rng, N, PARAMS)


@pytest.fixture(params=[spaces.DRAW_BLOCK, 1 << 12, 1 << 20],
                ids=["default-blocks", "4096-row-blocks", "one-block"])
def block(request, monkeypatch):
    monkeypatch.setattr(spaces, "DRAW_BLOCK", request.param)
    return request.param


@pytest.mark.parametrize("family", FAMILIES)
def test_full_stream_equals_whole_array_draw(family, block):
    cols = _sampler(family).columns()
    ref = _reference_columns(family)
    assert list(cols) == list(ref)
    for name in ref:
        assert np.array_equal(cols[name], ref[name]), name


@pytest.mark.parametrize("hull_kind", list(HULLS))
@pytest.mark.parametrize("family", FAMILIES)
def test_restricted_rows_equal_masked_full_draw(family, hull_kind, block):
    fn, pieces = HULLS[hull_kind]
    lo, hi = pieces(family)
    rv = cp.RandomVariable(hull_kind, fn)
    sub = _sampler(family).restricted(cp.Event.interval(rv, lo, hi))
    ref = _reference_columns(family)
    with np.errstate(divide="ignore"):
        v = fn(ref)
    mask = (lo < v) & (v < hi)
    assert 0 < mask.sum() < N
    cols = sub.columns()
    assert list(cols) == list(ref)
    for name in ref:
        assert np.array_equal(cols[name], ref[name][mask]), name
    assert sub.budget == N


def test_restricted_windows_equal_full_stream_windows():
    y = cp.coordinate("y")
    full = cp.Sampler("standard-normal-pair", seed=SEED, budget=N)
    sub = full.restricted(cp.Event.window(y, 0.0, 0.4))
    z_sq = cp.RandomVariable("z_squared", lambda c: c["z"] ** 2)
    for eps in (0.4, 0.2, 0.1, 0.05):
        event = cp.Event.window(y, 0.0, eps)
        assert sub.cond(z_sq, event, 0.0) == full.cond(z_sq, event, 0.0)
        assert sub.moment(z_sq, event) == full.moment(z_sq, event)
        assert sub.moment(None, event) == full.moment(None, event)


def _restricted_pair():
    y = cp.coordinate("y")
    sub = cp.Sampler("standard-normal-pair", seed=SEED, budget=N).restricted(
        cp.Event.window(y, 0.0, 0.4))
    return sub, y


@pytest.mark.parametrize("query", ["expectation", "moment-of-mass", "std", "pushforward"])
def test_restricted_stream_refuses_unconditional_queries(query):
    sub, y = _restricted_pair()
    z = cp.coordinate("z")
    calls = {
        "expectation": lambda: cp.expectation(sub, z),
        "moment-of-mass": lambda: sub.moment(None, None),
        "std": lambda: spaces.std(sub, z),
        "pushforward": lambda: cp.pushforward(sub, z, bins=(-4.0, 4.0, 16)),
    }
    with pytest.raises(OutsideHull) as info:
        calls[query]()
    assert isinstance(info.value, CondpointError)


@pytest.mark.parametrize("query", ["frame", "values_of", "indicator", "factorize",
                                   "too_fine_demo"])
def test_restricted_stream_refuses_reads_of_its_rows_as_the_sample(query):
    # the kept rows are not the sample: a reader of every row must not see
    # only the hull's rows
    sub, y = _restricted_pair()
    z = cp.coordinate("z")
    sub.cond(z, cp.Event.window(y, 0.0, 0.1), 0.0)  # memoises y on the kept rows
    calls = {
        "frame": lambda: sub.frame(),
        "values_of": lambda: sub.values_of(y),
        "indicator": lambda: sub.indicator(cp.Event.window(y, 0.0, 0.1)),
        "factorize": lambda: cp.factorize(sub, z, y, [1.0], band=0.01),
        "too_fine_demo": lambda: cp.too_fine_demo(sub, z, cp.Event.window(y, 0.0, 1e-9),
                                                  band=0.01),
    }
    with pytest.raises(OutsideHull):
        calls[query]()


@pytest.mark.parametrize("make_event", [
    lambda y, z: cp.Event.window(y, 0.0, 0.5),
    lambda y, z: cp.Event.window(y, 0.3, 0.2),
    lambda y, z: cp.Event.window(z, 0.0, 0.1),
    lambda y, z: cp.complement_within(None, cp.Event.window(y, 0.0, 0.1)),
    lambda y, z: cp.Event.window(y, 0.0, 0.1).complement(),
    lambda y, z: cp.Event.where(lambda c: np.abs(c["y"]) < 0.1, "pred"),
], ids=["wider", "off-centre", "other-variable", "outer-pieces", "complement", "predicate"])
def test_restricted_stream_refuses_events_outside_its_hull(make_event):
    sub, y = _restricted_pair()
    event = make_event(y, cp.coordinate("z"))
    with pytest.raises(OutsideHull):
        cp.cond_expectation_event(sub, cp.coordinate("z"), event)
    with pytest.raises(OutsideHull):
        cp.probability(sub, event)


def test_restricted_stream_needs_an_interval_hull():
    with pytest.raises(ValueError):
        cp.Sampler("standard-normal-pair", seed=1, budget=100).restricted(
            cp.Event.where(lambda c: c["y"] > 0, "positive"))


def test_interval_hull_of_a_family():
    y = cp.coordinate("y")
    events = [cp.Event.window(y, 0.0, e) for e in (0.1, 0.4, 0.2)]
    hull = spaces.interval_hull(events)
    assert hull.rv is y and hull.pieces == ((-0.4, 0.4),)
    ratio = cp.RandomVariable("ratio", lambda c: c["y"] / c["z"])
    assert spaces.interval_hull([*events, cp.Event.window(ratio, 0.0, 1.0)]) is None
    assert spaces.interval_hull([cp.Event.where(lambda c: c["y"] > 0, "p")]) is None
    assert spaces.interval_hull([]) is None


def _serial_reference(inst, families):
    """The paradox report from full substreams, one family after another."""
    epsilons = inst["schedule"].epsilons(inst["schedule"].eps0)
    traces = {fam.name: shrink_trace(inst["space"].substream(i), inst["X"],
                                     fam.pairs(epsilons), tol=1e-6, n_min=100,
                                     target=0.0, stop_early=False)
              for i, fam in enumerate(families)}
    (na, ta), (nb, tb) = traces.items()
    assert ta.verdict == tb.verdict == "Converged"
    return {"kind": "paradox_report", "description": "",
            "discrepancy": abs(ta.value - tb.value), "combined_tol": ta.tol + tb.tol,
            "pair": [na, nb],
            "families": {name: t.to_json_dict() for name, t in traces.items()}}


@pytest.mark.parametrize("which", ["families", "control_families"])
def test_paradox_reports_equal_serial_full_stream_reference(which, block):
    inst = ratio_normal_instance(seed=SEED, budget=500_000)
    rep = cp.borel_kolmogorov(inst["space"], inst["X"], inst[which], inst["schedule"])
    assert rep.to_json_dict() == _serial_reference(inst, inst[which])


def test_paradox_draws_streams_on_workers_off_the_public_methods(monkeypatch):
    # each stream is drawn on a worker thread, restricted to its family's
    # hull; every public sampler method runs on the calling thread
    main = threading.current_thread()
    seen, drawers, hulls = [], [], []
    for name in ("columns", "substream", "values_of", "indicator", "moment", "cond"):
        method = getattr(cp.Sampler, name)

        def spy(self, *args, _method=method, **kwargs):
            seen.append(threading.current_thread())
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(cp.Sampler, name, spy)
    restricted = cp.Sampler.restricted

    def record(self, hull):
        drawers.append(threading.current_thread())
        hulls.append(hull.pieces)
        return restricted(self, hull)

    monkeypatch.setattr(cp.Sampler, "restricted", record)
    inst = ratio_normal_instance(seed=SEED, budget=200_000)
    cp.borel_kolmogorov(inst["space"], inst["X"], inst["families"], inst["schedule"])
    assert seen and all(t is main for t in seen)
    assert len(drawers) == 2 and main not in drawers
    assert hulls == [((-0.4, 0.4),), ((-0.4, 0.4),)]
