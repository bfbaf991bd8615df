"""Sampler draws give the rows of one whole-array draw, bit for bit.

A built-in family draws its last column block by block.  The full stream
keeps every column; the streamed pass of ``Sampler.cond_each`` draws the
head column again, block by block, and keeps no rows.  Both must give the
rows of one whole-array draw, in the same order, and the streamed pass the
window counts of the full stream.
"""

import math
import threading

import numpy as np
import pytest

import condpoint as cp
from condpoint import spaces
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


def _head(family):
    return "x" if family == "gaussian-sum" else "z"


@pytest.mark.parametrize("family", FAMILIES)
def test_replayed_frames_equal_whole_array_draw(family, block):
    # a built-in family holds no head column: the budget ends inside a block;
    # the first pass and a later one from its recorded states give one draw
    assert N % block or block > N
    space, ref = _sampler(family), _reference_columns(family)
    for _ in range(2):
        got = {}
        for frame in spaces._pass(space, lambda frame: {k: v.copy() for k, v in frame.items()}):
            assert 0 < len(frame[_head(family)]) <= block
            for name, col in frame.items():
                got.setdefault(name, []).append(col)
        assert list(got) == list(ref)
        for name in ref:
            assert np.array_equal(np.concatenate(got[name]), ref[name]), name
    assert "columns" not in space._cache
    assert ("states" in space._cache) == (family != "custom")


# window lists per kind, for a family whose head column is ``h``, around
# ``c``: nested windows of the last column or of its ratio to the head,
# a predicate (not intervals), growing windows, a mix of pieces, a window
# inside one piece and a window that holds no row, nested windows that
# hold every row, and nested windows inside one that holds no row
WINDOW_LISTS = {
    "nested": lambda y, ratio, c: [cp.Event.window(y, c, e) for e in (0.4, 0.2, 0.1, 0.05)],
    "ratio": lambda y, ratio, c: [cp.Event.window(ratio, 0.0, e) for e in (0.4, 0.2, 0.1)],
    "predicate": lambda y, ratio, c: [
        cp.Event.where(lambda f, e=e: np.abs(f["y"] - c) < e, f"|y-c|<{e}") for e in (0.4, 0.1)],
    "growing": lambda y, ratio, c: [cp.Event.window(y, c, e) for e in (0.05, 0.1, 0.4)],
    "pieces": lambda y, ratio, c: [
        cp.Event.window(y, c, 0.4),
        cp.union_events([cp.Event.interval(y, c - 0.4, c - 0.1),
                         cp.Event.interval(y, c + 0.1, c + 0.4)]),
        cp.Event.interval(y, c + 0.2, c + 0.3),
        cp.Event.interval(y, c + 0.25, c + 0.25),
        cp.Event.window(y, 50.0, 1.0)],
    "every": lambda y, ratio, c: [cp.Event.window(y, c, e) for e in (1e3, 1e2)],
    "empty": lambda y, ratio, c: [cp.Event.window(y, 50.0, e) for e in (1.0, 0.5, 0.25)],
}

# block sums merge in another order than one sum over the window's rows
ROUNDOFF = 1e-13


@pytest.mark.parametrize("kind", list(WINDOW_LISTS))
@pytest.mark.parametrize("family", FAMILIES)
def test_streamed_windows_equal_full_stream_cond(family, kind, block):
    h = _head(family)
    y = cp.coordinate("y")
    ratio = cp.RandomVariable("ratio", lambda f: f["y"] / f[h])
    X = cp.RandomVariable("head_squared", lambda f: f[h] ** 2)
    c = 0.5 if family == "uniform-square" else 0.0
    # the list twice: a pass answers several lists, and the same event twice
    lists = [WINDOW_LISTS[kind](y, ratio, c)] * 2
    stream, full = _sampler(family), _sampler(family)
    answers = stream.cond_each(X, lists)
    for events, row in zip(lists, answers):
        assert len(row) == len(events)
        for event, got in zip(events, row):
            want = full.cond(X, event)
            assert (got.n, got.prob, got.degenerate) == (want.n, want.prob, want.degenerate)
            assert math.isclose(got.value, want.value, rel_tol=ROUNDOFF), event.name
            assert math.isclose(got.se, want.se, rel_tol=ROUNDOFF), event.name
            assert stream.cond(X, event) == got  # stored, read before any row
    assert "columns" not in stream._cache
    degenerate = [got.n for got in answers[0] if got.degenerate]
    # the empty interval and the far windows hold no row
    assert degenerate == {"pieces": [0, 0], "empty": [0, 0, 0]}.get(kind, [])
    if kind == "every":
        assert [got.n for got in answers[0]] == [N, N]


def test_a_stored_answer_belongs_to_its_variable_and_event():
    y = cp.coordinate("y")
    z = cp.coordinate("z")
    event = cp.Event.window(y, 0.0, 0.2)
    stream = cp.Sampler("standard-normal-pair", seed=SEED, budget=20_000)
    got, = stream.cond_each(z, [[event]])
    assert stream.cond(z, event) is got[0]
    # another variable, or an equal event that is another object, reads the rows
    assert stream.cond(y, event) is not got[0] and "columns" in stream._cache
    # the budget is one block, so the full stream sums in the same order
    assert stream.cond(z, cp.Event.window(y, 0.0, 0.2)) == got[0]
    del event, got
    assert not [key for key in stream._cache if isinstance(key, tuple) and key[0] == "cond"]


def _read_only_draw(rng, n, params):
    cols = _custom_draw(rng, n, params)
    for col in cols.values():
        col.flags.writeable = False
    return cols


@pytest.mark.parametrize("streamed", [False, True], ids=["full-stream", "streamed-pass"])
def test_a_custom_draw_may_return_read_only_arrays(streamed, block):
    # neither consumer writes into a drawn column
    returned = []

    def draw(rng, n, params):
        returned.append(_read_only_draw(rng, n, params))
        return returned[-1]

    space = cp.Sampler("custom", seed=1, budget=N, draw=draw)
    ref = _custom_draw(np.random.default_rng(np.random.SeedSequence(1)), N, {})
    y, z = cp.coordinate("y"), cp.coordinate("z")
    if streamed:
        (got,), = space.cond_each(z, [[cp.Event.window(y, 0.0, 0.4)]])
        mask = np.abs(ref["y"]) < 0.4
        assert got.n == mask.sum() and math.isclose(got.value, ref["z"][mask].mean(),
                                                     rel_tol=ROUNDOFF)
    else:
        cols = space.columns()
        assert list(cols) == list(ref)
        for name in ref:
            assert np.array_equal(cols[name], ref[name]), name
    drawn, = returned
    for name, col in drawn.items():
        assert not col.flags.writeable and np.array_equal(col, ref[name]), name


def test_a_missing_sampler_rho_is_zero():
    default = cp.Sampler("bivariate-normal", seed=SEED, budget=1000).columns()
    explicit = cp.Sampler("bivariate-normal", {"rho": 0.0}, seed=SEED, budget=1000).columns()
    assert list(default) == list(explicit)
    for name in explicit:
        assert np.array_equal(default[name], explicit[name]), name


def test_an_unknown_sampler_family_fails_at_construction():
    with pytest.raises(ValueError, match="unknown sampler family 'nope'; expected one of"):
        cp.Sampler("nope", seed=1, budget=100)
    assert cp.Sampler("nope", seed=1, budget=100, draw=_custom_draw).columns()["z"].size == 100


@pytest.mark.parametrize("family, params, error", [
    ("bivariate-normal", {"rho": 2}, "sampler params rho must be a finite number in [-1, 1], got 2"),
    ("bivariate-normal", {"rho": math.nan},
     "sampler params rho must be a finite number in [-1, 1], got nan"),
    ("gaussian-sum", {"var_noise": math.inf},
     "sampler params var_noise must be a finite number >= 0, got inf"),
])
def test_a_sampler_checks_its_family_params_at_construction(family, params, error):
    with pytest.raises(ValueError) as info:
        cp.Sampler(family, params, seed=1, budget=10)
    assert str(info.value) == error


@pytest.mark.parametrize("budget", [0, -3, 2.5])
def test_a_sampler_checks_its_budget_at_construction(budget):
    with pytest.raises(ValueError) as info:
        cp.Sampler("standard-normal-pair", seed=1, budget=budget)
    assert str(info.value) == f"sampler budget must be an integer >= 1, got {budget!r}"


def _serial_reference(inst, families):
    """The paradox report from full substreams, one family after another."""
    epsilons = inst["schedule"].epsilons(inst["schedule"].eps0)
    traces = {fam.name: shrink_trace(inst["space"].substream(i), inst["X"],
                                     fam.pairs(epsilons), tol=1e-6, target=0.0,
                                     stop_early=False)
              for i, fam in enumerate(families)}
    (na, ta), (nb, tb) = traces.items()
    assert ta.verdict == tb.verdict == "Converged"
    return {"kind": "paradox_report", "description": "",
            "discrepancy": abs(ta.value - tb.value), "combined_tol": ta.tol + tb.tol,
            "pair": [na, nb],
            "families": {name: t.to_json_dict() for name, t in traces.items()}}


# float fields of a paradox report; every other field must be equal
REPORT_FLOATS = {"estimate", "se", "value", "tol", "discrepancy", "combined_tol"}


def _assert_equal_up_to_roundoff(got, want, key=None):
    if isinstance(want, dict):
        assert list(got) == list(want)
        for name in want:
            _assert_equal_up_to_roundoff(got[name], want[name], name)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_equal_up_to_roundoff(g, w, key)
    elif key in REPORT_FLOATS:
        # values are O(1): a gap between two of them is bounded absolutely
        assert math.isclose(got, want, rel_tol=ROUNDOFF, abs_tol=ROUNDOFF), (key, got, want)
    else:
        assert got == want, (key, got, want)


@pytest.mark.parametrize("which", ["families", "control_families"])
def test_paradox_reports_equal_serial_full_stream_reference(which, block):
    # window counts, probabilities, verdicts, bounds and the pair are exact;
    # the streamed pass sums each window block by block, so its float
    # fields equal the full stream's up to summation order
    inst = ratio_normal_instance(seed=SEED, budget=500_000)
    rep = cp.borel_kolmogorov(inst["space"], inst["X"], inst[which], inst["schedule"])
    _assert_equal_up_to_roundoff(rep.to_json_dict(), _serial_reference(inst, inst[which]))


def test_paradox_draws_streams_on_workers_off_the_public_methods(monkeypatch):
    # each substream's streamed pass runs on a worker thread; every public
    # sampler method runs on the calling thread
    main = threading.current_thread()
    seen, passes, lists = [], [], []
    for name in ("columns", "substream", "values_of", "indicator", "moment", "cond"):
        method = getattr(cp.Sampler, name)

        def spy(self, *args, _method=method, **kwargs):
            seen.append(threading.current_thread())
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(cp.Sampler, name, spy)
    cond_each = cp.Sampler.cond_each

    def record(self, rv, families):
        passes.append(threading.current_thread())
        lists.append([[event.name for event in events] for events in families])
        return cond_each(self, rv, families)

    monkeypatch.setattr(cp.Sampler, "cond_each", record)
    inst = ratio_normal_instance(seed=SEED, budget=200_000)
    cp.borel_kolmogorov(inst["space"], inst["X"], inst["families"], inst["schedule"])
    assert seen and all(t is main for t in seen)
    assert len(passes) == 2 and main not in passes
    eps = (0.4, 0.2, 0.1, 0.05)
    assert sorted(lists) == [[[f"{{|y-0.0|<{e!r}}}" for e in eps]],
                             [[f"{{|y_over_z-0.0|<{e!r}}}" for e in eps]]]


# (rows per block, budget): a budget that ends inside the last of many small
# blocks, an odd count of small and of default blocks, and one block
SPLITS = {"4096-row-blocks": (1 << 12, N), "odd-4096-row-blocks": (1 << 12, 6 * 4096 + 100),
          "odd-65536-row-blocks": (1 << 16, N), "one-block": (1 << 16, 50_000)}


def _split_lists(family):
    # nested windows ending in an empty one, and windows of the ratio to the head
    h = _head(family)
    y = cp.coordinate("y")
    ratio = cp.RandomVariable("ratio", lambda f: f["y"] / f[h])
    c = 0.5 if family == "uniform-square" else 0.0
    return [[cp.Event.window(y, c, e) for e in (0.4, 0.2, 0.1, 0.0)],
            [cp.Event.window(ratio, 0.0, e) for e in (0.4, 0.1)]]


@pytest.mark.parametrize("split", list(SPLITS))
@pytest.mark.parametrize("family", list(spaces.DRAW_FAMILIES))
def test_a_split_pass_equals_a_sequential_pass(family, split, monkeypatch):
    block, budget = SPLITS[split]
    monkeypatch.setattr(spaces, "DRAW_BLOCK", block)
    X = cp.RandomVariable("head_squared", lambda f: f[_head(family)] ** 2)
    lists = _split_lists(family)
    recorded = cp.Sampler(family, PARAMS, seed=SEED, budget=budget, spawn=(3,))
    spaces.std(recorded, cp.coordinate("y"))  # the first pass records the states
    assert "states" in recorded._cache
    main, drawn_on = threading.current_thread(), []
    at = spaces._at
    monkeypatch.setattr(spaces, "_at", lambda rng, state: drawn_on.append(
        threading.current_thread()) or at(rng, state))
    split_answers = recorded.cond_each(X, lists)
    blocks = -(-budget // block)
    assert len(drawn_on) == 2 * blocks and main not in drawn_on
    fresh = cp.Sampler(family, PARAMS, seed=SEED, budget=budget, spawn=(3,))
    sequential = fresh.cond_each(X, lists)
    # the fresh sampler's pass draws every block on the calling thread
    assert drawn_on[2 * blocks:] == [main] * (2 * blocks)
    for got_row, want_row in zip(split_answers, sequential):
        for got, want in zip(got_row, want_row):
            assert (got.n, got.prob, got.value, got.se, got.degenerate) == \
                   (want.n, want.prob, want.value, want.se, want.degenerate)
    assert split_answers[0][-1].degenerate and split_answers[0][-1].n == 0
    assert "columns" not in recorded._cache and "columns" not in fresh._cache


@pytest.mark.parametrize("family", list(spaces.DRAW_FAMILIES))
def test_a_pass_after_the_full_stream_equals_a_fresh_first_pass(family):
    # drawn columns change nothing a pass draws or records: the budget ends
    # inside a block, and std, the windows and the recorded states equal a
    # fresh sampler's first pass, bit for bit
    assert N % spaces.DRAW_BLOCK
    y = cp.coordinate("y")
    X = cp.RandomVariable("head_squared", lambda f: f[_head(family)] ** 2)
    lists = _split_lists(family)
    full, fresh_std, fresh = _sampler(family), _sampler(family), _sampler(family)
    full.columns()
    got_std, got = spaces.std(full, y), full.cond_each(X, lists)
    assert spaces.std(fresh_std, y) == got_std
    want = fresh.cond_each(X, lists)
    assert fresh_std._cache["states"] == fresh._cache["states"] == full._cache["states"]
    for got_row, want_row in zip(got, want):
        for g, w in zip(got_row, want_row):
            assert (g.n, g.prob, g.value, g.se, g.degenerate) == \
                   (w.n, w.prob, w.value, w.se, w.degenerate)


def test_a_custom_draw_records_no_states_and_still_answers():
    space = _sampler("custom")
    y, z = cp.coordinate("y"), cp.coordinate("z")
    lists = [[cp.Event.window(y, 0.0, e) for e in (0.4, 0.1)]]
    first = space.cond_each(z, lists)
    assert "states" not in space._cache
    assert space.cond_each(z, lists) == first
    ref = _custom_draw(np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(3,))), N, {})
    for event, got in zip(lists[0], first[0]):
        mask = np.abs(ref["y"]) < event.pieces[0][1]
        assert got.n == mask.sum()
        assert math.isclose(got.value, ref["z"][mask].mean(), rel_tol=ROUNDOFF)


@pytest.mark.parametrize("family", FAMILIES)
def test_streamed_std_equals_numpy_on_the_columns(family, block):
    y = cp.coordinate("y")
    shifted = cp.coordinate(_head(family)) * y + 1e3
    streamed, fresh, full = _sampler(family), _sampler(family), _sampler(family)
    # the second pass starts from the states the first recorded, and splits
    got = [spaces.std(streamed, rv) for rv in (y, shifted)]
    assert "columns" not in streamed._cache
    assert ("states" in streamed._cache) == (family != "custom")
    assert spaces.std(fresh, shifted) == got[1]
    for rv, value in zip((y, shifted), got):
        want = float(np.std(full.values_of(rv)))
        assert math.isclose(value, want, rel_tol=ROUNDOFF), (rv.name, value, want)
