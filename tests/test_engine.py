"""Tests for the batch distance engine (repro.engine).

The engine's contract is *bit-identical* results: every batched or
prefiltered path must produce exactly the values and decisions of the
serial per-pair code, so equality assertions here are ``==`` /
``array_equal``, never ``approx``.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_database
from repro.cascade import FilterCascade
from repro.core.greedy import baseline_greedy, lazy_greedy
from repro.engine import DistanceEngine, batch_evaluator_for
from repro.engine.starbatch import _BLOCK_PROFILES
from repro.analysis.distances import sample_distances
from repro.baselines.ctree import CTree
from repro.baselines.mtree import MTree
from repro.datasets.registry import calibrate_theta
from repro.ged.metric import SLACK, CountingDistance, pairwise_matrix
from repro.ged.star import StarDistance
from repro.graphs import quartile_relevance
from repro.graphs.graph import LabeledGraph
from repro.index.frontier import IndexFrontier
from repro.index.nbindex import NBIndex
from repro.index.pivec import choose_thresholds
from repro.index.vantage import VantageEmbedding, select_vantage_points


@pytest.fixture
def db():
    return random_database(seed=13, size=50)


@pytest.fixture
def star():
    return StarDistance()


# ---------------------------------------------------------------------------
# Batch evaluator and engine values
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("normalized", [False, True])
def test_batch_evaluator_bit_identical(db, normalized):
    serial = StarDistance(normalized=normalized)
    evaluator = batch_evaluator_for(StarDistance(normalized=normalized))
    for source in (0, 7, 23):
        expected = np.array(
            [serial(db[source], g) for g in db.graphs]
        )
        got = evaluator.one_to_many(db[source], list(db.graphs))
        assert np.array_equal(got, expected)


def _rings(alphabet: int, prefix: str = "w") -> list[LabeledGraph]:
    """8-cycles over disjoint slices of ``alphabet`` distinct labels: every
    label becomes a token column of its own, so packing all the rings grows
    a registry by ``alphabet`` columns — past 64 and 128 when asked."""
    labels = [f"{prefix}{i}" for i in range(alphabet)]
    return [
        LabeledGraph(
            labels[lo:lo + 8], [(v, (v + 1) % 8) for v in range(8)]
        )
        for lo in range(0, alphabet, 8)
    ]


def _registry(evaluator) -> int:
    """Level-expanded token columns interned by the evaluator's store."""
    return evaluator.columns()[1].column_count


def _narrow_graphs(rng, count: int) -> list[LabeledGraph]:
    """Small graphs over two labels: the empty graph, isolated vertices, a
    hub whose ≥ 3 equal leaves need count levels, random sparse graphs."""
    graphs = [
        LabeledGraph([], []),
        LabeledGraph(["a", "b", "a"], []),
        LabeledGraph(["a"] + ["b"] * 5, [(0, leaf) for leaf in range(1, 6)]),
    ]
    for _ in range(count):
        graphs.append(_sized(rng, int(rng.integers(1, 8))))
    return graphs


def _sized(rng, n: int) -> LabeledGraph:
    """A random sparse graph of ``n`` vertices over two vertex and two
    edge labels."""
    edges = [
        (u, v, "-="[int(rng.integers(2))])
        for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
    ]
    return LabeledGraph(list(rng.choice(["a", "b"], n)), edges)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_batch_evaluator_property_bit_identical(data):
    """The bit-word kernel ``==`` the serial ``StarDistance``: multi-word
    masks, profiles packed before and after the registry crosses a word
    boundary in one batch, count levels, empty sides, every size relation,
    duplicates, and batch lengths on both sides of the loop / tensor
    switch (64) and of ``_BLOCK_PROFILES``."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    normalized = data.draw(st.booleans(), label="normalized")
    alphabet = data.draw(st.sampled_from([72, 136]), label="alphabet")
    narrow = _narrow_graphs(rng, data.draw(st.integers(2, 8), label="narrow"))
    wide = _rings(alphabet)
    serial = StarDistance(normalized=normalized)
    evaluator = batch_evaluator_for(serial)
    reference: dict[tuple[int, int], float] = {}

    def check(pool, source, targets):
        got = evaluator.one_to_many(pool[source], [pool[t] for t in targets])
        for value, target in zip(got.tolist(), targets):
            key = (id(pool[source]), id(pool[target]))
            if key not in reference:
                reference[key] = serial(pool[source], pool[target])
            assert value == reference[key], (source, target)

    # Narrow profiles are packed while one word still covers the registry…
    check(narrow, 2, range(len(narrow)))
    assert _registry(evaluator) <= 64
    # …the rings push it over one or two word boundaries…
    check(wide, 0, range(len(wide)))
    assert _registry(evaluator) > alphabet - 8
    # …and then old and new profiles meet, as source and as target.
    pool = narrow + wide
    lengths = (1, 2, 64, 65, _BLOCK_PROFILES, _BLOCK_PROFILES + 1)
    for source in (0, 2, len(pool) - 1, int(rng.integers(len(pool)))):
        length = data.draw(st.sampled_from(lengths), label="length")
        targets = rng.integers(0, len(pool), length).tolist()
        targets[0] = 0  # an empty target in every batch
        targets[-1] = targets[len(targets) // 2]  # and a duplicate
        check(pool, source, targets)


def test_batch_evaluator_concurrent_queries_bit_identical(db):
    """Concurrent one_to_many calls on ONE evaluator must stay correct.

    The service runs ``--concurrency`` threads against a shared engine;
    the token registry grows lazily, so unsynchronized interning used to
    (a) crash the overlap kernel with mismatched column counts and
    (b) risk two tokens silently sharing a column.  Hammer a fresh
    evaluator from several threads and check every value against the
    serial distance.  Each thread walks the targets in its own rotation,
    so the rings that carry the registry across the 64- and 128-column
    word boundaries are packed by one thread while the others are inside
    ``one_to_many`` holding narrower profiles.
    """
    serial = StarDistance()
    pool = list(db.graphs) + _rings(136)
    expected = {
        source: np.array([serial(pool[source], g) for g in pool])
        for source in range(8)
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):  # fresh registry each round: interning races live
            evaluator = batch_evaluator_for(StarDistance())
            results = {}
            barrier = threading.Barrier(4, timeout=10.0)

            def hammer(slot):
                shift = slot * len(pool) // 4
                order = list(range(shift, len(pool))) + list(range(shift))
                barrier.wait()  # maximize registry-growth overlap
                for source in (slot, slot + 4):
                    got = evaluator.one_to_many(
                        pool[source], [pool[t] for t in order]
                    )
                    results[source] = got[np.argsort(order)]

            threads = [
                threading.Thread(target=hammer, args=(slot,))
                for slot in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            assert not any(t.is_alive() for t in threads)
            assert _registry(evaluator) > 128
            assert sorted(results) == list(range(8))
            for source, got in results.items():
                assert np.array_equal(got, expected[source]), source
    finally:
        sys.setswitchinterval(interval)


def test_batch_evaluator_empty_and_mismatched_graphs(star):
    empty = LabeledGraph([], [])
    single = LabeledGraph(["a"], [])
    big = LabeledGraph(["a", "b", "c", "a"], [(0, 1), (1, 2), (2, 3), (3, 0)])
    evaluator = batch_evaluator_for(StarDistance())
    graphs = [empty, single, big]
    for g in graphs:
        expected = np.array([star(g, h) for h in graphs])
        assert np.array_equal(evaluator.one_to_many(g, graphs), expected)


def test_engine_matrix_matches_pairwise_matrix(db, star):
    expected = pairwise_matrix(db.graphs, star)
    engine = DistanceEngine(StarDistance(), graphs=db.graphs)
    assert np.array_equal(engine.matrix(), expected)


def test_engine_matrix_via_pairwise_matrix_param(db, star):
    engine = DistanceEngine(StarDistance())
    got = pairwise_matrix(db.graphs, engine)
    assert np.array_equal(got, pairwise_matrix(db.graphs, star))
    assert engine.evaluations == len(db) * (len(db) - 1) // 2


def test_one_to_many_accepts_indices_objects_and_duplicates(db, star):
    engine = DistanceEngine(StarDistance(), graphs=db.graphs)
    refs = [1, db[2], 1, 3, np.int64(4)]
    expected = np.array([star(db[0], db[i]) for i in (1, 2, 1, 3, 4)])
    assert np.array_equal(engine.one_to_many(0, refs), expected)
    # The duplicate index is served from the batch, not re-evaluated.
    assert engine.evaluations == 4
    assert engine.cache_hits == 1


def test_pairs_matches_serial(db, star):
    pairlist = [(0, 1), (5, 9), (9, 5), (2, 2), (0, 1)]
    expected = np.array([star(db[i], db[j]) for i, j in pairlist])
    engine = DistanceEngine(StarDistance(), graphs=db.graphs)
    assert np.array_equal(engine.pairs(pairlist), expected)
    # (9,5) mirrors (5,9) and the repeated (0,1) hits the batch dedupe.
    assert engine.evaluations == 3


def test_normalized_engine_matches(db):
    serial = StarDistance(normalized=True)
    expected = pairwise_matrix(db.graphs, serial)
    engine = DistanceEngine(StarDistance(normalized=True), graphs=db.graphs)
    assert np.array_equal(engine.matrix(), expected)


def test_engine_single_call_and_cache(db, star):
    engine = DistanceEngine(StarDistance(), graphs=db.graphs)
    value = engine(db[3], db[8])
    assert value == star(db[3], db[8])
    assert engine(3, 8) == value  # index refs resolve to the same pair
    assert engine.evaluations == 1
    assert engine.cache_hits == 1


def test_cached_verdicts_books_only_decided_pairs(db, star):
    """The peek evaluates nothing and decides every evaluated pair against
    its one threshold (``+1`` at ``≤``, ``−1`` above); a pair never
    evaluated reads 0 and is not a cache hit — the call that evaluates it
    books it."""
    for repeat in (1, 20):  # 60 targets take the numpy probe
        engine = DistanceEngine(StarDistance(), graphs=db.graphs)
        targets = np.array([5, 8, 9] * repeat, dtype=np.int64)
        values = engine.one_to_many(3, targets[:2])  # 9 stays unevaluated
        low, high = sorted(values.tolist())
        assert low < high, "the boundary cases need two distinct distances"
        hits = 0
        for threshold in (low - 1.0, low, (low + high) / 2.0, high):
            verdicts = engine.cached_verdicts(3, targets, threshold)
            expected = [1 if v <= threshold else -1 for v in values.tolist()]
            assert verdicts.tolist() == (expected + [0]) * repeat, threshold
            hits += 2 * repeat
            assert (engine.evaluations, engine.cache_hits) == (2, hits)
        engine.one_to_many(3, targets[2:3])  # pays for 9: a miss
        assert (engine.evaluations, engine.cache_hits) == (3, hits)
        assert 0 not in engine.cached_verdicts(3, targets, high).tolist()


def test_engine_non_star_distance_fallback(db):
    # A metric with no vectorized evaluator still works through the engine.
    def manhattan_size(g1, g2):
        return abs(g1.num_nodes - g2.num_nodes) + abs(g1.num_edges - g2.num_edges)

    expected = pairwise_matrix(db.graphs, manhattan_size)
    engine = DistanceEngine(manhattan_size, graphs=db.graphs)
    assert engine._evaluator is None
    assert np.array_equal(engine.matrix(), expected)


# ---------------------------------------------------------------------------
# Lipschitz prefilter
# ---------------------------------------------------------------------------
def test_within_matches_bruteforce(db, star):
    matrix = pairwise_matrix(db.graphs, star)
    rng = np.random.default_rng(1)
    vps = select_vantage_points(db.graphs, 5, rng, strategy="random")
    embedding = VantageEmbedding(db.graphs, vps, star)
    engine = DistanceEngine(StarDistance(), graphs=db.graphs)
    engine.attach_embedding(embedding)
    everyone = list(range(len(db)))
    for theta in (1.0, 3.0, 5.0, 8.0):
        # A vantage point as source gives exact upper bounds, exercising
        # the accept branch; the others exercise the reject branch.
        for source in (vps[0], 0, 11, 31):
            expected = matrix[source] <= theta + SLACK
            assert np.array_equal(
                engine.within(source, everyone, theta), expected
            )
    stats = engine.stats()
    assert stats["prefilter_lower_rejections"] > 0
    assert stats["prefilter_upper_accepts"] > 0
    # Prefiltered decisions must have saved real evaluations.
    assert stats["evaluations"] < len(db) * len(db)


def test_within_without_embedding_or_indices(db, star):
    engine = DistanceEngine(StarDistance(), graphs=db.graphs)
    expected = np.array(
        [star(db[4], g) <= 3.0 + SLACK for g in db.graphs]
    )
    assert np.array_equal(
        engine.within(db[4], list(db.graphs), 3.0), expected
    )


# ---------------------------------------------------------------------------
# Wrapper stats composability
# ---------------------------------------------------------------------------
def test_stats_composable_in_either_order(db, star):
    pairs = [(0, 1), (1, 2), (0, 1), (2, 0), (1, 2), (3, 4)]

    counting_outer = CountingDistance(DistanceEngine(StarDistance()))
    engine_outer = DistanceEngine(CountingDistance(StarDistance()))
    for i, j in pairs:
        assert counting_outer(db[i], db[j]) == engine_outer(db[i], db[j])

    a, b = counting_outer.stats(), engine_outer.stats()
    for key in ("evaluations", "cache_hits", "hit_rate"):
        assert a[key] == b[key], key
    assert a["calls"] == len(pairs)
    assert a["evaluations"] == 4  # distinct pairs
    assert a["cache_hits"] == 2
    # A counter *under* an engine sees what reached the metric: the engine
    # does not swap a counted StarDistance for the batch kernel.
    assert engine_outer.inner.calls == 4


def test_engine_stats_shape(db):
    engine = DistanceEngine(StarDistance(), graphs=db.graphs)
    engine.one_to_many(0, [1, 2, 1])
    stats = engine.stats()
    for key in ("evaluations", "cache_hits", "cache_misses", "hit_rate",
                "batches"):
        assert key in stats
    assert stats["evaluations"] == 2
    assert stats["cache_hits"] == 1
    assert engine.calls == 2  # CountingDistance-compatible


# ---------------------------------------------------------------------------
# Batched vs per-pair: whole-pipeline equivalence
# ---------------------------------------------------------------------------
def test_greedy_engine_matches_plain(db, star):
    q = quartile_relevance(db)
    plain = baseline_greedy(db, star, q, theta=4.0, k=6)
    engine = DistanceEngine(StarDistance(), graphs=db.graphs)
    fast = baseline_greedy(db, star, q, theta=4.0, k=6, engine=engine)
    lazy = lazy_greedy(db, star, q, theta=4.0, k=6, engine=engine)
    assert fast.answer == plain.answer
    assert fast.gains == plain.gains
    assert fast.covered == plain.covered
    assert lazy.answer == plain.answer
    assert lazy.covered == plain.covered


def test_maxmin_vantage_selection_matches(db, star):
    serial = select_vantage_points(
        db.graphs, 5, np.random.default_rng(3), strategy="maxmin",
        distance=star,
    )
    engine = DistanceEngine(StarDistance(), graphs=db.graphs)
    batched = select_vantage_points(
        db.graphs, 5, np.random.default_rng(3), strategy="maxmin",
        distance=engine,
    )
    assert serial == batched


def test_choose_thresholds_matches(db, star):
    serial = choose_thresholds(
        db.graphs, star, count=6, num_pairs=80, rng=np.random.default_rng(4)
    )
    engine = DistanceEngine(StarDistance(), graphs=db.graphs)
    batched = choose_thresholds(
        db.graphs, engine, count=6, num_pairs=80,
        rng=np.random.default_rng(4),
    )
    assert serial.values == batched.values


def test_sample_distances_matches(db, star):
    serial = sample_distances(db, star, num_pairs=60, rng=np.random.default_rng(8))
    engine = DistanceEngine(StarDistance(), graphs=db.graphs)
    batched = sample_distances(
        db, engine, num_pairs=60, rng=np.random.default_rng(8)
    )
    assert np.array_equal(serial.samples, batched.samples)


def test_mtree_ctree_engine_equivalence(db, star):
    engine = DistanceEngine(StarDistance(), graphs=db.graphs)
    m_serial = MTree(db.graphs, star, capacity=5, seed=np.random.default_rng(2))
    m_batch = MTree(
        db.graphs, engine, capacity=5, seed=np.random.default_rng(2)
    )
    c_serial = CTree(db.graphs, star, capacity=5, seed=np.random.default_rng(2))
    c_batch = CTree(
        db.graphs, engine, capacity=5, seed=np.random.default_rng(2)
    )
    assert m_serial.distance_calls == m_batch.distance_calls
    assert c_serial.distance_calls == c_batch.distance_calls
    for gid in (0, 17, 42):
        for theta in (2.0, 5.0):
            assert m_serial.range_query(gid, theta) == m_batch.range_query(gid, theta)
            assert c_serial.range_query(gid, theta) == c_batch.range_query(gid, theta)


# ---------------------------------------------------------------------------
# The referee: the serial StarDistance, pair by pair, through the *same*
# structures.  An engine over a callable with no batch evaluator runs
# ``StarDistance.__call__`` per pair behind the same batch entry points, so
# everything a structure builds or answers — and what it paid — must be
# ``==`` what it builds over the batch kernel.
# ---------------------------------------------------------------------------
def _range_tree(tree_cls):
    def build(db, engine):
        tree = tree_cls(db.graphs, engine, capacity=5, seed=2)
        answers = [tree.range_query(g, t) for g in (0, 17, 42) for t in (2.0, 5.0)]
        return answers, tree.distance_calls
    return build


def _nbindex(db, engine):
    index = NBIndex.build(db, engine, num_vantage_points=5, seed=5)
    q = quartile_relevance(db, quantile=0.3)
    session = index.session(q)
    results = [session.query(theta, k) for theta, k in ((4.0, 5), (6.0, 3), (3.0, 8))]
    return (
        index.embedding.coords.tolist(),
        [(r.answer, r.gains, r.covered, r.stats.distance_calls) for r in results],
    )


def _vantage(db, engine):
    embedding = VantageEmbedding(db.graphs, [3, 11, 29], engine)
    outsider = random_database(seed=31, size=1)[0]
    outsider.graph_id = None
    # A memtable graph's row, measured through an engine over the grown
    # graph list.
    grown = DistanceEngine(engine.inner, graphs=[*db.graphs, outsider])
    return embedding.coords.tolist(), embedding.row(len(db), grown).tolist()


_REFEREED = {
    "nbindex": _nbindex,
    "vantage": _vantage,
    "maxmin": lambda db, e: select_vantage_points(
        db.graphs, 5, rng=3, strategy="maxmin", distance=e
    ),
    "choose_thresholds": lambda db, e: choose_thresholds(
        db.graphs, e, count=6, num_pairs=80, rng=4
    ).values,
    "calibrate_theta": lambda db, e: calibrate_theta(db, e, num_pairs=80, rng=4),
    "sample_distances": lambda db, e: sample_distances(
        db, e, num_pairs=60, rng=8
    ).samples.tolist(),
    "mtree": _range_tree(MTree),
    "ctree": _range_tree(CTree),
    "pairwise_matrix": lambda db, e: pairwise_matrix(db.graphs[:20], e).tolist(),
}


@pytest.mark.parametrize("structure", sorted(_REFEREED))
def test_serial_metric_through_the_structures_matches_the_batch_kernel(
    db, star, structure
):
    serial = DistanceEngine(lambda a, b: star(a, b), graphs=db.graphs)
    batch = DistanceEngine(StarDistance(), graphs=db.graphs)
    assert serial._evaluator is None and batch._evaluator is not None
    assert _REFEREED[structure](db, serial) == _REFEREED[structure](db, batch)
    assert serial.evaluations == batch.evaluations > 0
    assert serial.cache_hits == batch.cache_hits


def test_insert_then_query_stays_correct():
    database = random_database(seed=30, size=40)
    index = NBIndex.build(
        database, StarDistance(), num_vantage_points=4, seed=2,
    )
    donor = random_database(seed=31, size=1)
    new_id = index.insert(donor[0], np.zeros(database.num_features))
    star = StarDistance()
    session = index.session(lambda row: True)
    result = session.query(theta=3.0, k=5)
    # The exact neighborhood of the inserted graph must match brute force.
    expected = frozenset(
        i for i in range(len(database))
        if star(database[new_id], database[i]) <= 3.0 + SLACK
    )
    frontier = IndexFrontier(
        index._member_state(session), 3.0, result.stats.__class__(),
        FilterCascade(),
    )
    # neighborhood_of returns a packed bitset over the session's
    # relevant universe; decode for the brute-force comparison.
    got = frontier.neighborhood_of(new_id)
    assert session.universe.decode_frozenset(got) == expected


# ---------------------------------------------------------------------------
# Thread safety of the shared pair cache (the query service runs several
# worker threads over one engine)
# ---------------------------------------------------------------------------
class TestEngineThreadSafety:
    def _reference(self, db, star, pairs):
        return {pair: star(db[pair[0]], db[pair[1]]) for pair in pairs}

    def test_concurrent_calls_bit_identical_and_counters_consistent(
        self, db, star
    ):
        import itertools

        pairs = list(itertools.combinations(range(20), 2))
        expected = self._reference(db, star, pairs)
        engine = DistanceEngine(star, graphs=db.graphs)
        errors = []
        barrier = threading.Barrier(4, timeout=10.0)

        def hammer(offset):
            barrier.wait()  # maximize overlap on the shared cache
            try:
                # Rotate so threads collide on the same keys in different
                # orders, mixing the single-pair and batch paths.
                mine = pairs[offset:] + pairs[:offset]
                for i, j in mine:
                    assert engine(i, j) == expected[(i, j)]
                row = engine.one_to_many(0, [j for _, j in mine[:15]])
                for value, (_, j) in zip(row, mine[:15]):
                    assert value == expected[tuple(sorted((0, j)))] if 0 != j else True
                got = engine.pairs(mine[:25])
                for value, pair in zip(got, mine[:25]):
                    assert value == expected[pair]
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(k * 37,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors, errors
        assert not any(t.is_alive() for t in threads)

        # Every cached value is exactly the serial metric's value.
        for (i, j), value in expected.items():
            assert engine(i, j) == value
        # Counter consistency: total lookups add up, and evaluations can
        # only exceed the distinct-pair count by benign duplicate misses
        # (two threads racing the same key), never undercount it.
        stats = engine.stats()
        assert stats["cache_size"] == len(expected)
        assert stats["evaluations"] >= len(expected)
        assert stats["cache_hits"] + stats["evaluations"] > 0

    def test_concurrent_within_prefilter(self, db, star):
        engine = DistanceEngine(star, graphs=db.graphs)
        vps = select_vantage_points(
            db.graphs, 4, np.random.default_rng(5), strategy="random"
        )
        embedding = VantageEmbedding(db.graphs, vps, star)
        engine.attach_embedding(embedding)
        candidates = list(range(len(db)))
        expected = engine.within(0, candidates, 5.0)
        fresh = DistanceEngine(star, graphs=db.graphs)
        fresh.attach_embedding(embedding)
        results = [None] * 4
        errors = []

        def worker(slot):
            try:
                results[slot] = fresh.within(0, candidates, 5.0)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors, errors
        for result in results:
            np.testing.assert_array_equal(result, expected)
