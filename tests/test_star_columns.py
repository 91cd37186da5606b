"""The star columns: one append-only store per graph list.

:class:`repro.engine.starbatch.StarColumns` holds every attached graph's
star profile as vertex columns, each row filled by the first batch that
reads it; the kernel gathers an attached graph by position and packs any
other graph for its call.  These tests hold the kernel to the serial
:class:`~repro.ged.StarDistance` bit for bit on both kinds of graph, as a
list grows past a word of the column registry, under an insert on a
mutable S = 2 index and under threads filling at once — and check
who shares one store: every prefix of a database's list, until a
snapshot's own append makes it no longer one.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.datasets import GENERATORS
from repro.engine import DistanceEngine
from repro.engine.starbatch import BatchStarEvaluator
from repro.ged import StarDistance
from repro.graphs import GraphDatabase
from tests.test_durability import _deployment, _mutate
from tests.test_engine import _narrow_graphs, _rings

SERIAL = StarDistance()


def _serial(source, targets) -> list[float]:
    return [SERIAL(source, target) for target in targets]


def _store(evaluator):
    return evaluator.columns()[1]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_attached_and_free_graphs_equal_the_serial_metric(data):
    """Sources and targets drawn from an attached list and from graphs
    outside it, in one batch or apart, at lengths on both sides of the
    loop / tensor switch: every value ``==`` the serial metric."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    attached = _narrow_graphs(rng, 6) + _rings(72)
    db = GraphDatabase(attached, np.zeros(len(attached)))
    free = _narrow_graphs(rng, 4) + _rings(24, prefix="f")
    evaluator = BatchStarEvaluator(graphs=db.graphs)
    pool = list(db.graphs) + free
    for _ in range(4):
        source = pool[int(rng.integers(len(pool)))]
        length = data.draw(st.sampled_from([1, 3, 64, 65, 130]), label="length")
        mixed = data.draw(st.booleans(), label="mixed")
        choices = pool if mixed else db.graphs
        targets = [choices[int(i)] for i in rng.integers(0, len(choices), length)]
        got = evaluator.one_to_many(source, targets)
        assert got.tolist() == _serial(source, targets)


def test_a_grown_list_crossing_a_word_keeps_its_rows_exact():
    """Rows filled while one word covers the registry, then graphs
    appended whose tokens carry it past 64 and 128 columns: the mask
    array widens, the old rows keep their bits and every value stays
    ``==`` the serial metric, old against new."""
    rng = np.random.default_rng(5)
    narrow = _narrow_graphs(rng, 8)
    db = GraphDatabase(narrow, np.zeros(len(narrow)))
    evaluator = BatchStarEvaluator(graphs=db.graphs)
    assert evaluator.one_to_many(db[3], db.graphs).tolist() == _serial(db[3], db.graphs)
    store = _store(evaluator)
    assert store.masks.shape[1] == 1
    before = store.masks[:store.offsets[-1]].copy()
    for ring in _rings(136):
        db.append(ring, [0.0])
    for source in (db[3], db[len(narrow)], db[len(db) - 1]):
        assert evaluator.one_to_many(source, db.graphs).tolist() == (
            _serial(source, db.graphs)
        )
    assert store.masks.shape[1] == 3 and all(store.ready)
    assert (store.masks[:len(before), :1] == before).all()
    assert not store.masks[:len(before), 1:].any()


def test_a_batch_fills_only_the_rows_it_reads():
    """A process fills the rows its batches read and no others; a batch
    holding a graph outside the list is packed whole for its call, each
    call, after the list's graphs in it got their rows."""
    db = GENERATORS["dud"](num_graphs=200, seed=6)
    evaluator = BatchStarEvaluator(graphs=db.graphs)
    evaluator.one_to_many(db[3], [db[70], db[150], db[70]])
    store = _store(evaluator)
    assert np.flatnonzero(store.ready).tolist() == [3, 70, 150]
    packed, pack = [], store.pack
    store.pack = lambda graphs: packed.append(len(graphs)) or pack(graphs)
    targets = [db[120], _rings(8, prefix="f")[0], db[180]]
    for want in ([3, 4], [4]):  # rows 9, 120 and 180 once, then the batch
        packed.clear()
        got = evaluator.one_to_many(db[9], targets).tolist()
        assert got == _serial(db[9], targets) and packed == want
    assert np.flatnonzero(store.ready).tolist() == [3, 9, 70, 120, 150, 180]


def test_prefix_snapshots_share_one_store_until_their_own_append():
    """A prefix subset holds the same graph objects and reads its origin's
    store; a subset that is not a prefix, or a prefix that appends a graph
    its origin does not hold there, reads its own."""
    db = GENERATORS["dud"](num_graphs=40, seed=3)
    store = _store(BatchStarEvaluator(graphs=db.graphs))
    prefix = db.subset(range(30))
    assert prefix[7] is db[7]
    assert _store(BatchStarEvaluator(graphs=prefix.graphs)) is store
    assert _store(BatchStarEvaluator(graphs=prefix.subset(range(9)).graphs)) is store
    assert _store(BatchStarEvaluator(graphs=db.subset([3, 1]).graphs)) is not store
    prefix.append(db[30], db.features[30])  # the origin's own graph
    assert _store(BatchStarEvaluator(graphs=prefix.graphs)) is store
    prefix.append(db[35], db.features[35])  # another graph at 31
    evaluator = BatchStarEvaluator(graphs=prefix.graphs)
    assert _store(evaluator) is not store
    assert evaluator.one_to_many(prefix[31], prefix.graphs).tolist() == (
        _serial(prefix[31], prefix.graphs)
    )


def test_a_mutable_sharded_index_shares_one_store_across_an_insert(tmp_path):
    """S = 2 behind a journal: the base index's engine and the memtable
    engine read one store; an inserted graph gets its row there on first
    touch, and its distances ``==`` the serial metric."""
    db, dbp, artifact = _deployment(tmp_path, 2)
    mutable = repro.open_index(
        artifact, dbp, mutable=True, journal=tmp_path / "m.journal",
    )
    _mutate(mutable, db, inserts=2, delete=None)
    live = mutable.database.graphs
    engines = [mutable.engine, mutable.base.index.engine]
    stores = {id(engine._stars.columns()[1]) for engine in engines}
    assert len(stores) == 1
    new = live[len(live) - 1]
    got = mutable.engine.one_to_many(new, list(live))
    assert got.tolist() == _serial(new, live)
    store = engines[0]._stars.columns()[1]
    assert store.ready[len(live) - 1] and len(store.ready) == len(live)
    mutable.close()


def test_threads_filling_at_once_agree_with_the_serial_metric():
    """The service shares one evaluator: four threads (more than the
    cores) make the first fills of one fresh list at once, each over every
    graph in its own rotation, with a shortened switch interval; every
    token must be interned once and every row read whole."""
    graphs = GENERATORS["dud"](num_graphs=300, seed=9).graphs
    extra = _rings(136)
    db = GraphDatabase(list(graphs) + extra, np.zeros(len(graphs) + len(extra)))
    evaluator = DistanceEngine(StarDistance(), graphs=db.graphs)._evaluator
    barrier = threading.Barrier(4, timeout=10.0)
    orders = [list(db.graphs[k * 80:]) + list(db.graphs[:k * 80]) for k in range(4)]
    sources = (0, 150, len(db) - 1)
    results: dict[int, list[list[float]]] = {}

    def fill(slot):
        barrier.wait()
        results[slot] = [
            evaluator.one_to_many(db[s], orders[slot][:40] + orders[slot][-40:]).tolist()
            for s in sources
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=fill, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for slot, order in enumerate(orders):
        for source, got in zip(sources, results[slot]):
            assert got == _serial(db[source], order[:40] + order[-40:])
    columns = evaluator.columns()[1]._columns
    assert len(set(columns.values())) == len(columns)  # each column once


def test_a_database_pickles_without_its_star_columns():
    """The store holds a lock and per-process rows: a pickled or copied
    database carries its graphs and fills its own columns afresh."""
    import copy
    import pickle

    db = GENERATORS["dud"](num_graphs=30, seed=4)
    evaluator = BatchStarEvaluator(graphs=db.graphs)
    want = evaluator.one_to_many(db[2], db.graphs).tolist()
    for twin in (pickle.loads(pickle.dumps(db)), copy.deepcopy(db)):
        assert twin.graphs.columns is None
        again = BatchStarEvaluator(graphs=twin.graphs)
        assert again.one_to_many(twin[2], twin.graphs).tolist() == want
