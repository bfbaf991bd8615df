"""Sampler draws give the rows of their block-keyed definition, bit for bit.

Block i of a sampler (DRAW_BLOCK rows, the last one shorter) is drawn
whole, by its family's one draw, from its own generator, keyed by the seed
and the spawn key plus (_BLOCK_KEY, i).  The full stream
(``Sampler.columns``, the reference no query reads) keeps every column;
the streamed pass of every query keeps no rows.  Both must give the rows
of that definition, in the same order, and the streamed pass the window
counts of the full stream.
"""

import math
import sys
import threading

import numpy as np
import pytest

import condpoint as cp
from condpoint import spaces
from condpoint.pathology import ratio_normal_instance
from condpoint.window import shrink_trace

from conftest import full_stream_cond

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


# a model outside the shipped ones, registered as a draw function: its rows
# are _custom_draw's, bit for bit
def CUSTOM(rng, out, params):
    return {"z": rng.standard_exponential(out=out[0]), "y": rng.standard_normal(out=out[1])}


FAMILIES = [*spaces.DRAW_FAMILIES, "custom"]


@pytest.fixture(autouse=True)
def custom_family(monkeypatch):
    monkeypatch.setitem(spaces.DRAW_FAMILIES, "custom", CUSTOM)


def _sampler(family):
    return cp.Sampler(family, PARAMS, seed=SEED, budget=N, spawn=(3,))


def _block_rng(seed, spawn, i):
    return np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=spawn + (spaces._BLOCK_KEY, i)))


def _keyed(draw, seed=SEED, spawn=(3,), n=N):
    """The rows of ``draw(rng, rows)`` of each block from its keyed
    generator, joined in block order."""
    block, cols = spaces.DRAW_BLOCK, {}
    for i, a in enumerate(range(0, n, block)):
        for name, col in draw(_block_rng(seed, spawn, i), min(block, n - a)).items():
            cols.setdefault(name, []).append(col)
    return {name: np.concatenate(parts) for name, parts in cols.items()}


def _reference_columns(family):
    """Each block drawn by the registered family into a fresh buffer."""
    draw = spaces.DRAW_FAMILIES[family]
    return _keyed(lambda rng, rows: draw(rng, np.empty((2, rows)), PARAMS))


@pytest.fixture(params=[spaces.DRAW_BLOCK, 1 << 12, 1 << 20],
                ids=["default-blocks", "4096-row-blocks", "one-block"])
def block(request, monkeypatch):
    monkeypatch.setattr(spaces, "DRAW_BLOCK", request.param)
    return request.param


@pytest.mark.parametrize("family", FAMILIES)
def test_a_family_draws_what_plain_numpy_draws(family):
    # a registered family's draw equals one whole-array draw
    draw, rng = spaces.DRAW_FAMILIES[family], np.random.default_rng(SEED)
    got = draw(rng, np.empty((2, N)), PARAMS)
    ref = _reference(family, np.random.default_rng(SEED), N, PARAMS)
    assert list(got) == list(ref)
    for name in ref:
        assert np.array_equal(got[name], ref[name]), name


@pytest.mark.parametrize("family", FAMILIES)
def test_full_stream_equals_keyed_block_draws(family, block):
    cols = _sampler(family).columns()
    ref = _reference_columns(family)
    assert list(cols) == list(ref)
    for name in ref:
        assert np.array_equal(cols[name], ref[name]), name


def _head(family):
    return "x" if family == "gaussian-sum" else "z"


@pytest.mark.parametrize("family", FAMILIES)
def test_pass_frames_equal_keyed_block_draws(family, block):
    # the budget ends inside a block; every pass gives the same rows, block
    # by block with every column of a frame one block long, and keeps none
    assert N % block or block > N
    space, ref = _sampler(family), _reference_columns(family)
    for _ in range(2):
        got, sizes = {}, []
        for frame in spaces._pass(space, lambda frame: {k: v.copy() for k, v in frame.items()}):
            sizes.append(len(frame[_head(family)]))
            assert {len(col) for col in frame.values()} == {sizes[-1]}
            for name, col in frame.items():
                got.setdefault(name, []).append(col)
        assert sizes == [min(block, N - start) for start in range(0, N, block)]
        assert list(got) == list(ref)
        for name in ref:
            assert np.array_equal(np.concatenate(got[name]), ref[name]), name
    assert space._cache == {}


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
            want = full_stream_cond(full, X, event)
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
    # another variable, or an equal event that is another object, takes a pass of its own
    assert stream.cond(y, event) is not got[0] and "columns" not in stream._cache
    # the budget is one block, so the pass sums in the same order
    assert stream.cond(z, cp.Event.window(y, 0.0, 0.2)) == got[0]
    del event, got
    assert not [key for key in stream._cache if isinstance(key, tuple) and key[0] == "cond"]


@pytest.mark.parametrize("family", ["gaussian-sum", "custom"])
def test_many_workers_fill_the_full_stream_without_a_lost_column(family, monkeypatch):
    # the workers reuse their block buffers while the calling thread fills
    # the kept columns from copies: with more workers than cores, tiny
    # blocks and frequent switches, a block not copied before its worker's
    # next draw would hold another block's rows; the workers race, so the
    # fill runs on ten fresh samplers
    monkeypatch.setattr(spaces, "DRAW_BLOCK", 64)
    monkeypatch.setattr(spaces, "DRAW_THREADS", 8)
    ref = _keyed(lambda rng, rows: _reference(family, rng, rows, PARAMS), n=5_000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fills = [cp.Sampler(family, PARAMS, seed=SEED, budget=5_000, spawn=(3,)).columns()
                 for _ in range(10)]
    finally:
        sys.setswitchinterval(interval)
    for cols in fills:
        assert list(cols) == list(ref)
        for name in ref:
            assert np.array_equal(cols[name], ref[name]), name


@pytest.mark.parametrize("family", FAMILIES)
def test_the_full_stream_is_read_only(family):
    # a write into a kept column would leave every memoised answer stale
    for name, col in cp.Sampler(family, PARAMS, seed=1, budget=1000).columns().items():
        with pytest.raises(ValueError, match="read-only"):
            col[:] = 100.0


@pytest.mark.parametrize("streamed", [False, True], ids=["full-stream", "streamed-pass"])
def test_a_custom_draw_may_return_read_only_arrays(streamed, block, monkeypatch):
    # neither consumer writes into a column a family returns
    returned = []

    def read_only(cols):
        for name, col in cols.items():
            cols[name] = col.view()
            cols[name].flags.writeable = False
        returned.append(cols)
        return cols

    monkeypatch.setitem(spaces.DRAW_FAMILIES, "read-only",
                        lambda rng, out, params: read_only(CUSTOM(rng, out, params)))
    space = cp.Sampler("read-only", seed=1, budget=N)
    ref = _keyed(lambda rng, rows: _custom_draw(rng, rows, {}), seed=1, spawn=())
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
    assert returned
    for cols in returned:
        for name, col in cols.items():
            assert not col.flags.writeable, name


def test_a_missing_sampler_rho_is_zero():
    default = cp.Sampler("bivariate-normal", seed=SEED, budget=1000).columns()
    explicit = cp.Sampler("bivariate-normal", {"rho": 0.0}, seed=SEED, budget=1000).columns()
    assert list(default) == list(explicit)
    for name in explicit:
        assert np.array_equal(default[name], explicit[name]), name


def test_an_unknown_sampler_family_fails_at_construction():
    with pytest.raises(ValueError, match="unknown sampler family 'nope'; expected one of"):
        cp.Sampler("nope", seed=1, budget=100)


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


@pytest.mark.parametrize("seed", [-5, 1.5, True, "7"])
def test_a_sampler_checks_its_seed_at_construction(seed):
    # the seed keys every block's generator: a bad one fails here, not at a draw
    with pytest.raises(ValueError) as info:
        cp.Sampler("standard-normal-pair", seed=seed, budget=10)
    assert str(info.value) == f"sampler seed must be an integer >= 0, got {seed!r}"


@pytest.mark.parametrize("index", [1.7, True, -1, "1", 1 << 32])
def test_a_substream_index_must_be_one_spawn_key_word(index):
    space = cp.Sampler("standard-normal-pair", seed=1, budget=10)
    with pytest.raises(ValueError) as info:
        space.substream(index)
    assert str(info.value) == f"substream index must be an integer in [0, {1 << 32}), got {index!r}"
    assert space.substream(np.int64(1)).spawn == (1,)


@pytest.mark.parametrize("spawn", [(1 << 32,), (-1,), (1.5,), (True,), (0, "1")])
def test_a_sampler_checks_its_spawn_key_at_construction(spawn):
    # an entry of 2**32 would spell the two words of (0, 1), and a negative
    # one would fail only at the first draw
    with pytest.raises(ValueError) as info:
        cp.Sampler("standard-normal-pair", seed=1, budget=10, spawn=spawn)
    assert str(info.value) == (
        f"sampler spawn key entry must be an integer in [0, {1 << 32}), got {spawn[-1]!r}")
    space = cp.Sampler("standard-normal-pair", seed=1, budget=10, spawn=[np.int64(2), 3])
    assert space.spawn == (2, 3) and type(space.spawn[0]) is int


def _serial_reference(inst, families):
    """The paradox report from full substreams, one family after another;
    run with ``Sampler.cond`` read from the full stream (``full_stream_cond``)."""
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
def test_paradox_reports_equal_serial_full_stream_reference(which, block, monkeypatch):
    # window counts, probabilities, verdicts, bounds and the pair are exact;
    # the streamed pass sums each window block by block, so its float
    # fields equal the full stream's up to summation order
    inst = ratio_normal_instance(seed=SEED, budget=500_000)
    rep = cp.borel_kolmogorov(inst["space"], inst["X"], inst[which], inst["schedule"])
    monkeypatch.setattr(cp.Sampler, "cond", full_stream_cond)
    _assert_equal_up_to_roundoff(rep.to_json_dict(), _serial_reference(inst, inst[which]))


def _watched(family, log):
    """The registered ``family`` with the thread of each block's draw
    appended to ``log``."""
    draw = spaces.DRAW_FAMILIES[family]
    return lambda rng, out, params: log.append(threading.current_thread()) or draw(
        rng, out, params)


def test_paradox_draws_streams_on_workers_off_the_public_methods(monkeypatch):
    # each substream's streamed pass draws its blocks on worker threads; the
    # passes, and every public sampler method, run on the calling thread
    main = threading.current_thread()
    seen, passes, lists, drawn_on = [], [], [], []
    monkeypatch.setitem(spaces.DRAW_FAMILIES, "standard-normal-pair",
                        _watched("standard-normal-pair", drawn_on))
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
    assert passes == [main, main]
    assert len(drawn_on) == 2 * -(-200_000 // spaces.DRAW_BLOCK) and main not in drawn_on
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
    main, drawn_on = threading.current_thread(), []
    monkeypatch.setitem(spaces.DRAW_FAMILIES, family, _watched(family, drawn_on))
    split = cp.Sampler(family, PARAMS, seed=SEED, budget=budget, spawn=(3,))
    split_answers = split.cond_each(X, lists)
    blocks = -(-budget // block)
    # even a fresh sampler's first pass draws every block once, on workers
    assert len(drawn_on) == blocks and main not in drawn_on
    monkeypatch.setattr(spaces, "DRAW_THREADS", 1)
    fresh = cp.Sampler(family, PARAMS, seed=SEED, budget=budget, spawn=(3,))
    sequential = fresh.cond_each(X, lists)
    assert len(drawn_on) == 2 * blocks and len(set(drawn_on[blocks:])) == 1
    for got_row, want_row in zip(split_answers, sequential):
        for got, want in zip(got_row, want_row):
            assert (got.n, got.prob, got.value, got.se, got.degenerate) == \
                   (want.n, want.prob, want.value, want.se, want.degenerate)
    assert split_answers[0][-1].degenerate and split_answers[0][-1].n == 0
    assert "columns" not in split._cache and "columns" not in fresh._cache


@pytest.mark.parametrize("family", list(spaces.DRAW_FAMILIES))
def test_a_pass_after_the_full_stream_equals_a_fresh_first_pass(family):
    # drawn columns change nothing a pass draws: the budget ends inside a
    # block, and std and the windows equal a fresh sampler's, bit for bit
    assert N % spaces.DRAW_BLOCK
    y = cp.coordinate("y")
    X = cp.RandomVariable("head_squared", lambda f: f[_head(family)] ** 2)
    lists = _split_lists(family)
    full, fresh_std, fresh = _sampler(family), _sampler(family), _sampler(family)
    full.columns()
    got_std, got = spaces.std(full, y), full.cond_each(X, lists)
    assert spaces.std(fresh_std, y) == got_std
    want = fresh.cond_each(X, lists)
    for got_row, want_row in zip(got, want):
        for g, w in zip(got_row, want_row):
            assert (g.n, g.prob, g.value, g.se, g.degenerate) == \
                   (w.n, w.prob, w.value, w.se, w.degenerate)


def test_a_custom_draw_answers_alike_on_every_pass():
    # a registered family is drawn as a shipped one is: a second pass gives
    # the first pass's answers
    space = _sampler("custom")
    y, z = cp.coordinate("y"), cp.coordinate("z")
    lists = [[cp.Event.window(y, 0.0, e) for e in (0.4, 0.1)]]
    first = space.cond_each(z, lists)
    assert space.cond_each(z, lists) == first
    ref = _reference_columns("custom")
    for event, got in zip(lists[0], first[0]):
        mask = np.abs(ref["y"]) < event.pieces[0][1]
        assert got.n == mask.sum()
        assert math.isclose(got.value, ref["z"][mask].mean(), rel_tol=ROUNDOFF)


def test_a_fresh_sampler_pass_draws_2_values_a_row(monkeypatch):
    # no pass draws a block twice: std on a fresh sampler draws each row's
    # two values once
    sizes = []

    def counted(rng, out, params):
        sizes.append(out.size)
        return CUSTOM(rng, out, params)

    monkeypatch.setitem(spaces.DRAW_FAMILIES, "counting", counted)
    space = cp.Sampler("counting", seed=SEED, budget=N)
    spaces.std(space, cp.coordinate("y"))
    assert sum(sizes) == 2 * N and len(sizes) == -(-N // spaces.DRAW_BLOCK)


def test_a_samplers_block_keys_are_none_of_its_substreams(monkeypatch):
    # block i is keyed by the spawn key plus (_BLOCK_KEY, i); a substream
    # puts its index, one 32-bit word, first, so no two blocks of a sampler
    # and its substreams at any depth share a generator
    monkeypatch.setattr(spaces, "DRAW_BLOCK", 1 << 12)
    keys, seed_sequence = [], np.random.SeedSequence

    def recorded(seed, spawn_key):
        keys.append((seed, spawn_key))
        return seed_sequence(seed, spawn_key=spawn_key)

    monkeypatch.setattr(np.random, "SeedSequence", recorded)
    space = cp.Sampler("standard-normal-pair", seed=SEED, budget=5 * 4096 + 1)
    subs = [space.substream(i) for i in (0, 1, 5, 6, spaces._BLOCK_KEY - 1)]
    subs += [subs[0].substream(1), subs[1].substream(0), subs[4].substream(0)]
    y = cp.coordinate("y")
    by_space = []
    for s in [space, *subs]:
        keys.clear()
        spaces.std(s, y)
        assert len(keys) == 6
        by_space.append({(seed, key) for seed, key in keys})
    states = [tuple(seed_sequence(seed, spawn_key=key).generate_state(8))
              for got in by_space for seed, key in got]
    assert len(set().union(*by_space)) == len(set(states)) == 6 * len(by_space)


@pytest.mark.parametrize("family", FAMILIES)
def test_streamed_std_equals_numpy_on_the_columns(family, block):
    y = cp.coordinate("y")
    shifted = cp.coordinate(_head(family)) * y + 1e3
    streamed, fresh, full = _sampler(family), _sampler(family), _sampler(family)
    got = [spaces.std(streamed, rv) for rv in (y, shifted)]
    assert "columns" not in streamed._cache
    assert spaces.std(fresh, shifted) == got[1]
    for rv, value in zip((y, shifted), got):
        want = float(np.std(full.values_of(rv)))
        assert math.isclose(value, want, rel_tol=ROUNDOFF), (rv.name, value, want)
