"""The engine's pair cache (repro.engine.paircache): the table against a
dict, keys that cannot alias, and tokens that are never reused."""

import gc
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DistanceEngine
from repro.engine import paircache
from repro.engine.paircache import (
    TOKEN_BASE,
    PairTable,
    half,
    halves,
    key_halves,
    pair_key,
)
from repro.graphs import LabeledGraph, path_graph

BATCHES = (1, 2, 17, 64, 5000)


def _row(seed: int, size: int, universe: int):
    """One source half, ``size`` other halves over ``universe`` (repeats
    likely), their keys, and a value per pair as a metric would give."""
    rng = np.random.default_rng(seed)
    a = int(rng.integers(universe))
    others = rng.integers(0, universe, size).tolist()
    keys = [pair_key(a, b) for b in others]
    return a, others, keys, [float(min(a, b) * universe + max(a, b)) for b in others]


def _check_scan(table: PairTable, reference: dict, a: int, others) -> None:
    keys = [pair_key(a, b) for b in others]
    out = np.full(len(keys), np.nan)
    misses, miss_keys = table.scan(a, others, out)
    assert misses == [i for i, key in enumerate(keys) if key not in reference]
    assert miss_keys == [keys[i] for i in misses]
    hits = [i for i, key in enumerate(keys) if key in reference]
    assert out[hits].tolist() == [reference[keys[i]] for i in hits]
    values = [None] * len(keys)  # a list takes the values too
    table.scan(a, others, values)
    assert values == [reference.get(key) for key in keys]
    assert [table.get(key) for key in keys[:64]] == values[:64]
    expected = [reference.get(key, np.nan) for key in keys]
    assert np.array_equal(table.values(a, others), expected, equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(("put", "put", "scan", "clear")),
            st.sampled_from(BATCHES),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=10,
    ),
    universe=st.sampled_from((30, 300, 3000)),
)
def test_table_matches_a_dict(ops, universe):
    table, reference = PairTable(), {}
    for op, size, seed in ops:
        a, others, keys, values = _row(seed, size, universe)
        if op == "put":
            table.put(keys, values)
            for key, value in zip(keys, values):
                reference.setdefault(key, value)
        elif op == "scan":
            _check_scan(table, reference, a, others)
        else:
            table.clear()
            reference.clear()
        assert len(table) == len(reference)
    stored, values = table.items()
    assert list(zip(stored.tolist(), values.tolist())) == sorted(reference.items())


@pytest.mark.parametrize("step", [1, 2, 17, 64])
def test_growth_boundaries(step):
    # Fill past several growths a few keys at a time, checking every key
    # right at each boundary.
    table, reference = PairTable(), {}
    rows = [_row(seed, 300, 10_000) for seed in range(10)]
    for a, others, keys, values in rows:
        for start in range(0, len(keys), step):
            before = table._capacity
            table.put(keys[start:start + step], values[start:start + step])
            for key, value in zip(keys[start:start + step], values[start:start + step]):
                reference.setdefault(key, value)
            if table._capacity != before or len(table) == table._max_count:
                for row in rows:
                    _check_scan(table, reference, *row[:2])
            assert len(table) <= table._max_count
    assert len(table) / table._capacity >= 0.6 - 1e-9


def test_threads_scan_and_store_the_same_keys():
    # The engine's discipline: scan under its lock, evaluate outside it,
    # store under it again — two threads may both miss a key and both
    # store it.  No pair may be lost or doubled.
    table, lock = PairTable(), threading.Lock()
    a, others, keys, values = _row(3, 5000, 400)
    value_of = dict(zip(keys, values))
    start = threading.Barrier(4)

    def worker(offset: int):
        start.wait()
        for begin in range(offset, len(others), 17):
            block = others[begin:begin + 17]
            with lock:
                _, missed = table.scan(a, block, [None] * len(block))
            with lock:
                table.put(missed, [value_of[key] for key in missed])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(offset,)) for offset in (0, 3, 5, 8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    _check_scan(table, value_of, a, others)
    assert len(table) == len(value_of)


def test_bytes_per_pair_at_the_dud_build_size():
    # 196 764 pairs: the n = 5 000 dud build's cache (tests/test_build_pin).
    table = PairTable()
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, 5000, (260_000, 2)).tolist()
    keys = list(dict.fromkeys(pair_key(a, b) for a, b in pairs))[:196_764]
    table.put(keys, [float(key % 997) for key in keys])
    assert len(table) == 196_764
    assert table.nbytes / len(table) <= 27


def test_keys_pack_symmetric_halves():
    rng = np.random.default_rng(5)
    for a, b in rng.integers(0, TOKEN_BASE, (200, 2)).tolist():
        assert pair_key(a, b) == pair_key(b, a)
        assert key_halves(pair_key(a, b)) == (min(a, b), max(a, b))
    top = (1 << 32) - 2  # the largest token
    assert key_halves(pair_key(top, 0)) == (0, top)
    # No key is stored as the empty slot: its one preimage has a high half
    # above its low half, and keys are packed smaller half first.
    packed = paircache._EMPTY * paircache._UNSCRAMBLE & paircache._MASK64
    assert packed >> 32 > packed & 0xFFFFFFFF


def test_graph_ids_must_fit_below_the_token_space():
    engine = DistanceEngine(lambda a, b: 1.0)
    fine = LabeledGraph(["C"], graph_id=TOKEN_BASE - 1)
    assert engine(fine, fine) == 1.0
    for graph_id in (TOKEN_BASE, -1):
        bad = LabeledGraph(["C"], graph_id=graph_id)
        with pytest.raises(ValueError, match="graph_id"):
            engine(bad, fine)
        with pytest.raises(ValueError, match="graph_id"):
            engine.one_to_many(fine, [fine, bad])


def test_numpy_integer_ids_key_like_ints():
    engine = DistanceEngine(lambda a, b: float(a.graph_id + b.graph_id))
    g = LabeledGraph(["C"], graph_id=np.int64(5))
    h = LabeledGraph(["C"], graph_id=7).renumbered(np.int32(7))
    assert type(g.graph_id) is int and type(h.graph_id) is int
    assert engine(g, h) == 12.0
    assert engine.one_to_many(h, [g, h]).tolist() == [12.0, 14.0]
    assert engine.cache_hits == 1


def test_tokens_are_held_for_a_lifetime_and_never_reused():
    graphs = [path_graph(["C"] * size) for size in range(1, 6)]
    tokens = [half(g) for g in graphs]
    assert tokens == halves(graphs) == [half(g) for g in graphs]
    assert len(set(tokens)) == len(tokens)
    assert min(tokens) >= TOKEN_BASE
    registered = len(paircache._tokens)
    del graphs
    gc.collect()
    assert len(paircache._tokens) == registered - len(tokens)
    assert half(path_graph(["C"])) > max(tokens)


@pytest.mark.parametrize("path", ["single", "batch"])
def test_a_recycled_id_never_serves_a_stale_distance(path):
    # Keyed by -id(g), a graph without graph_id inherited the cached
    # distance of a collected graph whose id() CPython handed it.  The
    # metric does not keep the graphs alive, unlike the star kernel.
    engine = DistanceEngine(lambda a, b: float(a.num_nodes + b.num_nodes))
    reference = path_graph(["C"])
    seen, recycled = set(), False
    for size in range(2, 80):
        g = path_graph(["C"] * size)
        recycled |= id(g) in seen
        seen.add(id(g))
        if path == "single":
            assert engine(g, reference) == size + 1
        else:
            assert engine.one_to_many(reference, [g]).tolist() == [size + 1]
        del g
    assert recycled  # the hazard was there to meet


def test_spent_tokens_stop_caching_not_queries(monkeypatch):
    # Tokens are never reused, so a long-lived process could spend all
    # 2**31 - 1 of them; a graph that finds none is evaluated uncached.
    monkeypatch.setattr(
        paircache, "_next_token", itertools.count(paircache._TOKEN_END - 1)
    )
    last = path_graph(["C"])
    assert half(last) == paircache._TOKEN_END - 1
    spent = path_graph(["C", "C"])
    with pytest.raises(paircache.Uncacheable):
        half(spent)
    ids = [LabeledGraph(["C"] * (i + 1), graph_id=i) for i in range(3)]
    engine = DistanceEngine(lambda a, b: float(a.num_nodes + b.num_nodes), graphs=ids)
    assert engine(spent, ids[0]) == 3.0
    assert engine.one_to_many(spent, [ids[0], spent, ids[0]]).tolist() == [3.0, 4.0, 3.0]
    assert engine.one_to_many(ids[1], [spent, ids[2]]).tolist() == [4.0, 5.0]
    assert engine.pairs([(spent, ids[0]), (ids[0], ids[1])]).tolist() == [3.0, 3.0]
    assert engine.cached_verdicts(spent, [ids[0]], 9.0).tolist() == [0]
    assert engine.matrix([spent, last]).tolist() == [[0.0, 3.0], [3.0, 0.0]]
    assert engine.columns([spent, ids[0]], [ids[1]]).tolist() == [[4.0, 3.0]]
    assert engine.evaluations == 1 + 3 + 2 + 2 + 1 + 2
    # a call meeting a graph without a half bypasses the cache whole, and
    # a column block stores nothing at all
    assert len(engine._cache) == 0
    assert engine.one_to_many(ids[0], [ids[1]]).tolist() == [3.0]
    assert list(map(key_halves, engine._cache.items()[0].tolist())) == [(0, 1)]


class _LockChecked(PairTable):
    """A table that fails every touch made without ``lock`` held."""

    def __init__(self, lock):
        super().__init__()
        self.lock = lock

    def get(self, key):
        assert self.lock._is_owned(), "get outside the engine's lock"
        return super().get(key)

    def scan(self, a, others, out):
        assert self.lock._is_owned(), "scan outside the engine's lock"
        return super().scan(a, others, out)

    def values(self, a, others):
        assert self.lock._is_owned(), "values outside the engine's lock"
        return super().values(a, others)

    def put(self, keys, values):
        assert self.lock._is_owned(), "put outside the engine's lock"
        super().put(keys, values)


def test_every_table_touch_holds_the_engine_lock():
    graphs = [LabeledGraph(["C"] * (i % 3 + 1), graph_id=i) for i in range(60)]
    engine = DistanceEngine(lambda a, b: float(a.num_nodes * b.num_nodes), graphs=graphs)
    engine._cache = _LockChecked(engine._cache_lock)
    free = path_graph(["C", "C"])
    row = engine.one_to_many(0, [1, 2, 1, free, 2, free])
    assert row.tolist() == [2.0, 3.0, 2.0, 2.0, 3.0, 2.0]
    assert engine.one_to_many(free, np.arange(60)).tolist() == [
        2.0 * g.num_nodes for g in graphs
    ]
    assert engine(3, free) == 2.0
    engine.pairs([(4, 5), (4, 5), (free, 6)])
    for length in (10, 60):  # the pure-Python and the numpy probe
        engine.cached_verdicts(0, np.arange(length), 1.0)
    engine.columns([0, 1, 0], np.arange(40))
    engine.matrix(range(8))


def test_repeated_targets_copy_their_miss_while_other_threads_store():
    # A target repeated within one call is filled from its miss's place in
    # the result, never read back from the shared table, which concurrent
    # writers shift and re-lay meanwhile.
    graphs = [LabeledGraph(["C"], graph_id=i) for i in range(4000)]

    def metric(a, b):
        return abs(a.graph_id - b.graph_id) + (a.graph_id + b.graph_id) / 1e4

    engine = DistanceEngine(metric, graphs=graphs)
    start, failures = threading.Barrier(3), []

    def writer(first: int):
        start.wait()
        for source in range(first, 4000, 2):
            engine.one_to_many(source, np.arange(source % 7, 4000, 61))

    def reader():
        start.wait()
        for source in range(4000):
            targets = [(source * 13 + step) % 4000 for step in (1, 2)]
            row = [targets[0], targets[1], targets[0], targets[1], targets[0]]
            got = engine.one_to_many(source, row).tolist()
            want = [metric(graphs[source], graphs[t]) for t in row]
            if got != want:
                failures.append((source, got, want))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(first,)) for first in (0, 1)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
