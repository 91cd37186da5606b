"""Tests for the batch distance engine (repro.engine).

The engine's contract is *bit-identical* results: every batched, pooled or
prefiltered path must produce exactly the values and decisions of the
serial per-pair code, so equality assertions here are ``==`` /
``array_equal``, never ``approx``.
"""

import os

import numpy as np
import pytest

from tests.conftest import random_database
from repro.cascade import FilterCascade
from repro.core.greedy import baseline_greedy, lazy_greedy
from repro.engine import DistanceEngine, batch_evaluator_for, resolve_workers
from repro.ged.metric import (
    CachingDistance,
    CountingDistance,
    pairwise_matrix,
)
from repro.ged.star import StarDistance
from repro.graphs import quartile_relevance
from repro.graphs.graph import LabeledGraph
from repro.index.frontier import TreeFrontier
from repro.index.nbindex import NBIndex
from repro.index.pivec import choose_thresholds
from repro.index.vantage import VantageEmbedding, select_vantage_points

_EPS = 1e-9


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


def test_batch_evaluator_concurrent_queries_bit_identical(db):
    """Concurrent one_to_many calls on ONE evaluator must stay correct.

    The service runs ``--concurrency`` threads against a shared engine;
    the token registry grows lazily, so unsynchronized interning used to
    (a) crash the overlap matmul with mismatched column counts and
    (b) risk two tokens silently sharing a column.  Hammer a fresh
    evaluator from several threads over disjoint graph slices and check
    every value against the serial distance.
    """
    import threading

    serial = StarDistance()
    expected = {
        source: np.array([serial(db[source], g) for g in db.graphs])
        for source in range(8)
    }
    for _ in range(5):  # fresh registry each round: interning races live
        evaluator = batch_evaluator_for(StarDistance())
        results = {}
        barrier = threading.Barrier(4)

        def hammer(sources):
            barrier.wait()  # maximize registry-growth overlap
            for source in sources:
                results[source] = evaluator.one_to_many(
                    db[source], list(db.graphs)
                )

        threads = [
            threading.Thread(target=hammer, args=([s, s + 4],))
            for s in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for source, got in results.items():
            assert np.array_equal(got, expected[source]), source


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
    with DistanceEngine(StarDistance(), workers=1, graphs=db.graphs) as engine:
        assert np.array_equal(engine.matrix(), expected)
    with DistanceEngine(
        StarDistance(), workers=4, graphs=db.graphs, parallel_threshold=8,
        respect_cpu_count=False,
    ) as engine:
        assert np.array_equal(engine.matrix(), expected)
        assert engine.stats()["parallel_batches"] > 0


def test_engine_matrix_via_pairwise_matrix_param(db, star):
    with DistanceEngine(StarDistance(), workers=1) as engine:
        got = pairwise_matrix(db.graphs, star, engine=engine)
    assert np.array_equal(got, pairwise_matrix(db.graphs, star))


def test_one_to_many_accepts_indices_objects_and_duplicates(db, star):
    with DistanceEngine(StarDistance(), workers=1, graphs=db.graphs) as engine:
        refs = [1, db[2], 1, 3, np.int64(4)]
        expected = np.array([star(db[0], db[i]) for i in (1, 2, 1, 3, 4)])
        assert np.array_equal(engine.one_to_many(0, refs), expected)
        # The duplicate index is served from the batch, not re-evaluated.
        assert engine.evaluations == 4
        assert engine.cache_hits == 1


def test_pairs_matches_serial(db, star):
    pairlist = [(0, 1), (5, 9), (9, 5), (2, 2), (0, 1)]
    expected = np.array([star(db[i], db[j]) for i, j in pairlist])
    with DistanceEngine(StarDistance(), workers=1, graphs=db.graphs) as engine:
        assert np.array_equal(engine.pairs(pairlist), expected)
        # (9,5) mirrors (5,9) and the repeated (0,1) hits the batch dedupe.
        assert engine.evaluations == 3


def test_normalized_engine_matches(db):
    serial = StarDistance(normalized=True)
    expected = pairwise_matrix(db.graphs, serial)
    with DistanceEngine(
        StarDistance(normalized=True), workers=1, graphs=db.graphs
    ) as engine:
        assert np.array_equal(engine.matrix(), expected)


def test_engine_single_call_and_cache(db, star):
    with DistanceEngine(StarDistance(), workers=1, graphs=db.graphs) as engine:
        value = engine(db[3], db[8])
        assert value == star(db[3], db[8])
        assert engine(3, 8) == value  # index refs resolve to the same pair
        assert engine.evaluations == 1
        assert engine.cache_hits == 1


def test_cached_verdicts_books_only_decided_pairs(db, star):
    """The peek evaluates nothing, and a pair counts as a cache hit once:
    where the peek decides it, or later where ``one_to_many`` reads it."""
    with DistanceEngine(StarDistance(), workers=1, graphs=db.graphs) as engine:
        targets = np.array([5, 8, 9], dtype=np.int64)
        values = engine.one_to_many(3, targets[:2])  # 9 stays unevaluated
        low, high = sorted(values.tolist())
        assert low < high, "the band case needs two distinct distances"
        middle = (low + high) / 2.0
        # Everything known is decided: two hits, the unknown pair is 0.
        verdicts = engine.cached_verdicts(3, targets, accept=middle, reject=middle)
        expected = [1 if v <= middle else -1 for v in values.tolist()] + [0]
        assert verdicts.tolist() == expected
        assert (engine.evaluations, engine.cache_hits) == (2, 2)
        # Both known pairs inside the (accept, reject] band: undecided,
        # not booked — the read that resolves them books them.
        verdicts = engine.cached_verdicts(
            3, targets, accept=low - 1.0, reject=high
        )
        assert verdicts.tolist() == [0, 0, 0]
        assert engine.cache_hits == 2
        engine.one_to_many(3, targets[:2])
        assert (engine.evaluations, engine.cache_hits) == (2, 4)


def test_engine_non_star_distance_fallback(db):
    # A metric with no vectorized evaluator still works through the engine.
    def manhattan_size(g1, g2):
        return abs(g1.num_nodes - g2.num_nodes) + abs(g1.num_edges - g2.num_edges)

    expected = pairwise_matrix(db.graphs, manhattan_size)
    with DistanceEngine(manhattan_size, workers=1, graphs=db.graphs) as engine:
        assert engine._evaluator is None
        assert np.array_equal(engine.matrix(), expected)


# ---------------------------------------------------------------------------
# Serial fallback, worker resolution and pooling
# ---------------------------------------------------------------------------
def test_serial_engine_never_creates_a_pool(db):
    engine = DistanceEngine(StarDistance(), workers=1, graphs=db.graphs)
    engine.matrix()
    engine.one_to_many(0, list(range(len(db))))
    engine.pairs([(0, 1), (2, 3)])
    assert engine._pool is None
    assert engine.stats()["parallel_batches"] == 0


def test_parallel_engine_small_batches_stay_in_process(db):
    engine = DistanceEngine(
        StarDistance(), workers=4, graphs=db.graphs, parallel_threshold=1000
    )
    engine.one_to_many(0, list(range(len(db))))
    assert engine._pool is None
    engine.close()


def test_pool_sized_to_cpu_count(db):
    import os as _os

    cores = _os.cpu_count() or 1
    capped = DistanceEngine(StarDistance(), workers=cores + 3, graphs=db.graphs)
    assert capped.pool_workers == cores
    capped.close()
    forced = DistanceEngine(
        StarDistance(), workers=cores + 3, graphs=db.graphs,
        respect_cpu_count=False,
    )
    assert forced.pool_workers == cores + 3
    forced.close()


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv("REPRO_ENGINE_WORKERS", "5")
    assert resolve_workers(None) == 5
    assert resolve_workers(2) == 2
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_no_eager_multiprocessing_import():
    # Engine modules must not import multiprocessing at import time.
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import repro, repro.engine, repro.index.nbindex\n"
        "assert 'multiprocessing.pool' not in sys.modules, 'eager pool import'\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# Lipschitz prefilter
# ---------------------------------------------------------------------------
def test_within_matches_bruteforce(db, star):
    matrix = pairwise_matrix(db.graphs, star)
    rng = np.random.default_rng(1)
    vps = select_vantage_points(db.graphs, 5, rng, strategy="random")
    embedding = VantageEmbedding(db.graphs, vps, star)
    engine = DistanceEngine(StarDistance(), workers=1, graphs=db.graphs)
    engine.attach_embedding(embedding)
    everyone = list(range(len(db)))
    for theta in (1.0, 3.0, 5.0, 8.0):
        # A vantage point as source gives exact upper bounds, exercising
        # the accept branch; the others exercise the reject branch.
        for source in (vps[0], 0, 11, 31):
            expected = matrix[source] <= theta + _EPS
            assert np.array_equal(
                engine.within(source, everyone, theta), expected
            )
    stats = engine.stats()
    assert stats["prefilter_lower_rejections"] > 0
    assert stats["prefilter_upper_accepts"] > 0
    # Prefiltered decisions must have saved real evaluations.
    assert stats["evaluations"] < len(db) * len(db)


def test_within_without_embedding_or_indices(db, star):
    engine = DistanceEngine(StarDistance(), workers=1, graphs=db.graphs)
    expected = np.array(
        [star(db[4], g) <= 3.0 + _EPS for g in db.graphs]
    )
    assert np.array_equal(
        engine.within(db[4], list(db.graphs), 3.0), expected
    )


# ---------------------------------------------------------------------------
# Wrapper stats composability
# ---------------------------------------------------------------------------
def test_stats_composable_in_either_order(db, star):
    pairs = [(0, 1), (1, 2), (0, 1), (2, 0), (1, 2), (3, 4)]

    counting_outer = CountingDistance(CachingDistance(StarDistance()))
    caching_outer = CachingDistance(CountingDistance(StarDistance()))
    for i, j in pairs:
        assert counting_outer(db[i], db[j]) == caching_outer(db[i], db[j])

    a, b = counting_outer.stats(), caching_outer.stats()
    for key in ("calls", "evaluations", "cache_hits", "hit_rate"):
        assert a[key] == b[key], key
    assert a["calls"] == len(pairs)
    assert a["evaluations"] == 4  # distinct pairs
    assert a["cache_hits"] == 2


def test_engine_stats_shape(db):
    with DistanceEngine(StarDistance(), workers=1, graphs=db.graphs) as engine:
        engine.one_to_many(0, [1, 2, 1])
        stats = engine.stats()
    for key in ("evaluations", "cache_hits", "cache_misses", "hit_rate",
                "batches", "parallel_batches", "workers"):
        assert key in stats
    assert stats["evaluations"] == 2
    assert stats["cache_hits"] == 1
    assert engine.calls == 2  # CountingDistance-compatible


# ---------------------------------------------------------------------------
# Parallel vs serial: whole-pipeline equivalence
# ---------------------------------------------------------------------------
def _build_index(workers):
    database = random_database(seed=21, size=60)
    index = NBIndex.build(
        database, StarDistance(), num_vantage_points=6, branching=4,
        seed=5, workers=workers,
    )
    return database, index


def test_index_build_identical_across_worker_counts():
    database1, index1 = _build_index(workers=1)
    database4, index4 = _build_index(workers=4)
    try:
        assert np.array_equal(index1.embedding.coords, index4.embedding.coords)
        assert index1.embedding.vantage_indices == index4.embedding.vantage_indices
        assert index1.ladder.values == index4.ladder.values
        assert index1.tree.num_nodes == index4.tree.num_nodes
        for a, b in zip(index1.tree.nodes, index4.tree.nodes):
            assert a.centroid == b.centroid
            assert a.radius == b.radius
            assert a.diameter == b.diameter
            assert a.graph_index == b.graph_index
            assert np.array_equal(a.members, b.members)
        assert index1.tree.stats.exact_distances == index4.tree.stats.exact_distances
        assert index1.tree.stats.pruned_by_vantage == index4.tree.stats.pruned_by_vantage
        assert index1.stats()["distance_calls"] == index4.stats()["distance_calls"]

        q1 = quartile_relevance(database1)
        q4 = quartile_relevance(database4)
        session1 = index1.session(q1)
        session4 = index4.session(q4)
        # Identical pi-hat vectors at every indexed threshold.
        for ladder_index in range(len(index1.ladder)):
            assert np.array_equal(
                session1.pi_hat_column(ladder_index),
                session4.pi_hat_column(ladder_index),
            )
        for theta in (2.0, 4.0):
            r1 = session1.query(theta, 6)
            r4 = session4.query(theta, 6)
            assert r1.answer == r4.answer
            assert r1.gains == r4.gains
            assert r1.covered == r4.covered
    finally:
        index1.engine.close()
        index4.engine.close()


def test_greedy_engine_matches_plain(db, star):
    q = quartile_relevance(db)
    plain = baseline_greedy(db, star, q, theta=4.0, k=6)
    with DistanceEngine(
        StarDistance(), workers=4, graphs=db.graphs, parallel_threshold=8,
        respect_cpu_count=False,
    ) as engine:
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
    with DistanceEngine(StarDistance(), workers=1, graphs=db.graphs) as engine:
        batched = select_vantage_points(
            db.graphs, 5, np.random.default_rng(3), strategy="maxmin",
            engine=engine,
        )
    assert serial == batched


def test_choose_thresholds_matches(db, star):
    serial = choose_thresholds(
        db.graphs, star, count=6, num_pairs=80, rng=np.random.default_rng(4)
    )
    with DistanceEngine(StarDistance(), workers=1, graphs=db.graphs) as engine:
        batched = choose_thresholds(
            db.graphs, engine, count=6, num_pairs=80,
            rng=np.random.default_rng(4), engine=engine,
        )
    assert serial.values == batched.values


def test_sample_distances_matches(db, star):
    from repro.analysis.distances import sample_distances

    serial = sample_distances(db, star, num_pairs=60, rng=np.random.default_rng(8))
    with DistanceEngine(StarDistance(), workers=1, graphs=db.graphs) as engine:
        batched = sample_distances(
            db, star, num_pairs=60, rng=np.random.default_rng(8), engine=engine
        )
    assert np.array_equal(serial.samples, batched.samples)


def test_mtree_ctree_engine_equivalence(db, star):
    from repro.baselines.ctree import CTree
    from repro.baselines.mtree import MTree

    with DistanceEngine(
        StarDistance(), workers=4, graphs=db.graphs, parallel_threshold=8,
        respect_cpu_count=False,
    ) as engine:
        m_serial = MTree(db.graphs, star, capacity=5, seed=np.random.default_rng(2))
        m_batch = MTree(
            db.graphs, star, capacity=5, seed=np.random.default_rng(2),
            engine=engine,
        )
        c_serial = CTree(db.graphs, star, capacity=5, seed=np.random.default_rng(2))
        c_batch = CTree(
            db.graphs, star, capacity=5, seed=np.random.default_rng(2),
            engine=engine,
        )
    assert m_serial.distance_calls == m_batch.distance_calls
    assert c_serial.distance_calls == c_batch.distance_calls
    for gid in (0, 17, 42):
        for theta in (2.0, 5.0):
            assert m_serial.range_query(gid, theta) == m_batch.range_query(gid, theta)
            assert c_serial.range_query(gid, theta) == c_batch.range_query(gid, theta)


def test_insert_invalidates_pool_and_stays_correct():
    database = random_database(seed=30, size=40)
    index = NBIndex.build(
        database, StarDistance(), num_vantage_points=4, branching=4,
        seed=2, workers=2,
    )
    try:
        donor = random_database(seed=31, size=1)
        new_id = index.insert(donor[0], np.zeros(database.num_features))
        assert index.engine._pool is None  # dropped on insert
        star = StarDistance()
        session = index.session(lambda row: True)
        result = session.query(theta=3.0, k=5)
        # The exact neighborhood of the inserted graph must match brute force.
        expected = frozenset(
            i for i in range(len(database))
            if star(database[new_id], database[i]) <= 3.0 + _EPS
        )
        frontier = TreeFrontier(
            index._tree_state(session), 3.0, index.ladder.index_for(3.0),
            result.stats.__class__(), FilterCascade(),
            distances=index._pair_distances,
        )
        # neighborhood_of returns a packed bitset over the session's
        # relevant universe; decode for the brute-force comparison.
        got = frontier.neighborhood_of(new_id)
        assert session.universe.decode_frozenset(got) == expected
    finally:
        index.engine.close()


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
        import threading

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
        import threading

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
