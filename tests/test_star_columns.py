"""The star columns: one append-only store per graph list.

:class:`repro.engine.starbatch.StarColumns` holds every attached graph's
star profile as vertex columns, each row filled by the first batch that
reads it; the kernel gathers an attached graph by position and packs any
other graph for its call, and solves each pair as a rectangle of the
smaller side's stars against the larger side's.  These tests hold the
kernel to the serial :class:`~repro.ged.StarDistance` bit for bit on both
kinds of graph, at every size relation of a pair, as a list grows past a
word of the column registry, whatever order its rows were interned in,
under an insert on a mutable S = 2 index and under threads filling at
once — and check who shares one store: every prefix of a database's
list, until a snapshot's own append makes it no longer one.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.bitset import kernel
from repro.datasets import GENERATORS
from repro.engine import DistanceEngine, starbatch
from repro.engine.starbatch import BatchStarEvaluator
from repro.ged import StarDistance
from repro.graphs import GraphDatabase, LabeledGraph
from tests.test_durability import _deployment, _mutate
from tests.test_engine import _narrow_graphs, _rings, _sized

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


#: The target sizes a source of ``n_g`` vertices meets under each relation,
#: smallest first, and the source sizes tried: a 0- and a 1-vertex graph
#: on each side of every relation that allows one there.
RELATIONS = {
    "source smaller": (lambda n_g: list(range(n_g + 1, n_g + 6)), (0, 1)),
    "source larger": (lambda n_g: list(range(n_g)), (1, 2)),
    "equal sizes": (lambda n_g: [n_g], (0, 1)),
}


@pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
@pytest.mark.parametrize("relation", sorted(RELATIONS))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_the_rectangle_equals_the_serial_metric_at_every_size_relation(
    relation, normalized, data
):
    """Every target smaller than the source, every one larger, or every
    one the same size — 0- and 1-vertex graphs among them — in batches on
    both sides of the loop / tensor switch, attached to a list or free:
    the rectangular solve ``==`` the serial (n1 + n2)² Riesen–Bunke one."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    length = data.draw(st.sampled_from([1, 64, 65, 200]), label="length")
    attached = data.draw(st.booleans(), label="attached")
    target_sizes, small_sources = RELATIONS[relation]
    serial = StarDistance(normalized=normalized)
    for n_g in (*small_sources, data.draw(st.integers(2, 7), label="n_g")):
        sizes = target_sizes(n_g)
        drawn = rng.choice(sizes, length)
        drawn[-1], drawn[0] = sizes[min(1, len(sizes) - 1)], sizes[0]
        graphs = [_sized(rng, n_g)] + [_sized(rng, int(n)) for n in drawn]
        owner = GraphDatabase(graphs, np.zeros(len(graphs))).graphs if attached else None
        graphs = list(owner) if attached else graphs
        evaluator = BatchStarEvaluator(normalized, owner)
        got = evaluator.one_to_many(graphs[0], graphs[1:]).tolist()
        assert got == [serial(graphs[0], target) for target in graphs[1:]]


def test_fills_in_either_order_intern_apart_and_agree():
    """One list's rows filled first to last and last to first number their
    tokens and columns apart; every kernel value is the same on both,
    ``==`` the serial metric, and a filled database still pickles without
    its store."""
    import pickle

    db = GENERATORS["dud"](num_graphs=120, seed=8)
    twin = pickle.loads(pickle.dumps(db))
    forwards = BatchStarEvaluator(graphs=db.graphs)
    backwards = BatchStarEvaluator(graphs=twin.graphs)
    _store(forwards).fill(db.graphs, range(len(db)))
    for row in reversed(range(len(twin))):
        _store(backwards).fill(twin.graphs, [row])
    ahead, behind = _store(forwards), _store(backwards)
    assert ahead.column_count == behind.column_count
    assert not np.array_equal(ahead.masks[:ahead.offsets[-1]], behind.masks[:behind.offsets[-1]])
    for source in (0, 57, 119):
        for targets in (range(3), range(len(db))):  # the loop, then the tensors
            got = forwards.one_to_many(db[source], [db[t] for t in targets]).tolist()
            assert got == backwards.one_to_many(twin[source], [twin[t] for t in targets]).tolist()
            assert got == _serial(db[source], [db[t] for t in targets])
    again = pickle.loads(pickle.dumps(db))
    assert again.graphs.columns is None
    fresh = BatchStarEvaluator(graphs=again.graphs)
    assert fresh.one_to_many(again[57], again.graphs).tolist() == _serial(db[57], db.graphs)


def test_a_hub_over_a_large_alphabet_keeps_the_registry_small():
    """One vertex of degree 400 whose neighbours share a label, in a graph
    over 2 000 other labels: the registry holds the tokens and columns in
    use (a few thousand), not a table of every token by the largest level
    (≥ 6 MB), and the values stay ``==`` the serial metric."""
    hub, alphabet = 400, 2000
    labels = ["hub"] + ["leaf"] * hub + [f"p{i}" for i in range(alphabet)]
    edges = [(0, leaf) for leaf in range(1, hub + 1)]
    edges += [(hub + i, hub + i + 1) for i in range(1, alphabet)]
    rng = np.random.default_rng(4)
    graphs = [LabeledGraph(labels, edges), *_narrow_graphs(rng, 3)]
    db = GraphDatabase(graphs, np.zeros(len(graphs)))
    evaluator = BatchStarEvaluator(graphs=db.graphs)
    for source in (db[1], db[len(db) - 1]):
        assert evaluator.one_to_many(source, db.graphs).tolist() == _serial(source, db.graphs)
    store = _store(evaluator)
    assert hub <= store.column_count < 3 * alphabet
    assert sum(array.nbytes for array in (*store._tokens, *store._columns)) < 256 * 1024


def test_the_byte_table_popcount_gives_the_same_values(monkeypatch):
    """numpy 1.x counts bits by a byte table: the overlap costs, ``int32``
    less those counts, keep their dtype and every value on both paths."""
    monkeypatch.setattr(starbatch, "word_counts", kernel.byte_table_counts)
    db = GENERATORS["dud"](num_graphs=80, seed=6)
    evaluator = BatchStarEvaluator(graphs=db.graphs)
    for targets in (db.graphs[:5], db.graphs):  # the loop, then the tensors
        assert evaluator.one_to_many(db[7], targets).tolist() == _serial(db[7], targets)


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
    store = evaluator.columns()[1]
    keys, ids = store._columns  # sorted keys, then one above all
    assert (np.diff(keys) > 0).all()  # each column once
    assert np.sort(ids[:-1]).tolist() == list(range(store.column_count))


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
