"""Dual-run equivalence gate: bitset hot paths vs a set-based oracle.

The packed-bitset kernel (:mod:`repro.bitset`) is only admissible if it
is invisible in the answers: same ids, same gains, same selection order,
same coverage — and the same work counters, since downstream analyses
read ``gain_evaluations``/``reheap_count`` as algorithm statistics, not
timings.  These tests run Algorithm 1 with per-id Python ``set``
bookkeeping (the oracle below — what :mod:`repro.core.greedy` was before
the kernel) against every bitset engine on identical inputs: both greedy
variants (with and without a range-query backend), the NB-Index session
(S=1) and the sharded coordinator (S=4).
"""

import heapq
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import all_theta_neighborhoods, baseline_greedy, lazy_greedy
from repro.ged import StarDistance
from repro.ged.metric import SLACK
from repro.graphs import quartile_relevance
from repro.index import NBIndex, ThresholdLadder
from repro.metricspace import vector_database


def make_instance(n: int, dims: int = 6, seed: int = 7):
    """A synthetic vector-metric instance: database, relevance rule, shared
    threshold ladder, a θ on it, and a vectorized range query.  The range
    query is *not* the engines' arithmetic bit for bit: it roots with
    numpy's array ``** 0.5``, which is ``sqrt``, where ``MinkowskiMetric``
    (and its batch kernel) take the scalar power — the two differ in the
    last bit on ~0.08 % of pairs.  The ``SLACK`` in both θ tests absorbs
    that, so every engine still sees the same neighborhoods.
    ``benchmarks/e2e`` builds ``vec_sharded`` alike.
    """
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dims))
    db, dist = vector_database(points)
    query_fn = quartile_relevance(db, quantile=0.5)

    pairs = rng.integers(0, n, size=(min(4000, n * 4), 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    sample = ((points[pairs[:, 0]] - points[pairs[:, 1]]) ** 2).sum(axis=1) ** 0.5
    ladder = ThresholdLadder(sorted(
        float(np.quantile(sample, q))
        for q in (0.02, 0.05, 0.08, 0.12, 0.2, 0.35, 0.5)
    ))
    theta = float(np.quantile(sample, 0.2))  # a rung of the ladder

    def range_query(gid: int, radius: float):
        distances = ((points - points[int(gid)]) ** 2).sum(axis=1) ** 0.5
        return np.flatnonzero(distances <= radius + SLACK)

    return db, dist, query_fn, ladder, theta, range_query


def set_greedy(db, dist, query_fn, theta, k, *, lazy=False, range_query=None,
               stop_on_zero_gain=False):
    """Algorithm 1 over Python sets, O(k · |L_q| · |N̂|) on purpose; ``lazy``
    re-evaluates a heap entry only when it surfaces stale.  Smallest id
    wins ties in both."""
    relevant = [int(i) for i in db.relevant_indices(query_fn)]
    hoods = all_theta_neighborhoods(db, dist, relevant, theta,
                                    range_query=range_query)
    answer, gains, covered = [], [], set()
    stats = SimpleNamespace(gain_evaluations=0, reheap_count=0)
    if lazy:
        heap = [(-len(hoods[gid]), gid, 0) for gid in sorted(relevant)]
        heapq.heapify(heap)
        stats.gain_evaluations = len(heap)
    while len(answer) < min(k, len(relevant)):
        if lazy:
            neg_gain, best, generation = heapq.heappop(heap)
            if generation != len(answer):
                stats.gain_evaluations += 1
                stats.reheap_count += 1
                fresh = len(hoods[best] - covered)
                heapq.heappush(heap, (-fresh, best, len(answer)))
                continue
            best_gain = -neg_gain
        else:
            remaining = sorted(set(relevant) - set(answer))
            stats.gain_evaluations += len(remaining)
            best_gain, best = max(
                (len(hoods[gid] - covered), -gid) for gid in remaining
            )
            best = -best
        if best_gain == 0 and stop_on_zero_gain:
            break
        answer.append(best)
        gains.append(best_gain)
        covered |= hoods[best]
    return SimpleNamespace(
        answer=answer, gains=gains, covered=frozenset(covered),
        num_relevant=len(relevant), stats=stats,
    )


baseline_greedy_sets = set_greedy
lazy_greedy_sets = partial(set_greedy, lazy=True)


def assert_same_result(got, want):
    assert got.answer == want.answer
    assert got.gains == want.gains
    assert got.covered == want.covered
    assert got.num_relevant == want.num_relevant


@pytest.fixture(scope="module")
def graph_instance():
    from repro.datasets import GENERATORS

    db = GENERATORS["dud"](num_graphs=60, seed=5)
    return db, StarDistance(), quartile_relevance(db)


@pytest.fixture(scope="module")
def vector_instance():
    return make_instance(400, seed=11)


@pytest.mark.parametrize("theta", [4.0, 8.0, 12.0])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_baseline_matches_set_reference(graph_instance, theta, k):
    db, dist, q = graph_instance
    want = baseline_greedy_sets(db, dist, q, theta, k)
    got = baseline_greedy(db, dist, q, theta, k)
    assert_same_result(got, want)
    assert got.stats.gain_evaluations == want.stats.gain_evaluations


@pytest.mark.parametrize("theta", [4.0, 8.0, 12.0])
@pytest.mark.parametrize("k", [1, 3, 7])
def test_lazy_matches_set_reference(graph_instance, theta, k):
    db, dist, q = graph_instance
    want = lazy_greedy_sets(db, dist, q, theta, k)
    got = lazy_greedy(db, dist, q, theta, k)
    assert_same_result(got, want)
    assert got.stats.gain_evaluations == want.stats.gain_evaluations
    assert got.stats.reheap_count == want.stats.reheap_count


def test_range_query_fast_path_is_identical(vector_instance):
    db, dist, query_fn, ladder, theta, range_query = vector_instance
    for k in (1, 5, 16):
        want = baseline_greedy_sets(
            db, dist, query_fn, theta, k, range_query=range_query
        )
        got = baseline_greedy(
            db, dist, query_fn, theta, k, range_query=range_query
        )
        assert_same_result(got, want)
        lazy = lazy_greedy(
            db, dist, query_fn, theta, k, range_query=range_query
        )
        assert_same_result(lazy, want)


def test_stop_on_zero_gain_matches(graph_instance):
    db, dist, q = graph_instance
    want = baseline_greedy_sets(db, dist, q, 3.0, 40, stop_on_zero_gain=True)
    got = baseline_greedy(db, dist, q, 3.0, 40, stop_on_zero_gain=True)
    assert_same_result(got, want)
    lazy = lazy_greedy(db, dist, q, 3.0, 40, stop_on_zero_gain=True)
    assert_same_result(lazy, want)


def test_engines_match_set_reference(vector_instance):
    db, dist, query_fn, ladder, theta, range_query = vector_instance
    k = 8
    want = baseline_greedy_sets(
        db, dist, query_fn, theta, k, range_query=range_query
    )

    index = NBIndex.build(
        db, dist, thresholds=ladder, seed=11,
        num_vantage_points=6, branching=12,
    )
    single = index.query(query_fn, theta, k)
    assert_same_result(single, want)

    import tempfile

    from repro.shard import ShardedIndex, build_shards

    with tempfile.TemporaryDirectory() as out_dir:
        manifest = build_shards(
            db, dist, num_shards=4, out_dir=out_dir, thresholds=ladder,
            seed=11, num_vantage_points=6, branching=12,
        )
        sharded = ShardedIndex.load(manifest, db, dist)
        got = sharded.query(query_fn, theta, k)
    assert_same_result(got, want)


def test_coverage_state_take_is_exact(vector_instance):
    """The shared take() helper reports the same gain the row had."""
    from repro.core.greedy import CoverageState

    db, dist, query_fn, ladder, theta, range_query = vector_instance
    relevant = [int(i) for i in db.relevant_indices(query_fn)]
    coverage = CoverageState.from_range_query(relevant, range_query, theta)
    gains_before = coverage.gains()
    order = np.argsort(-gains_before)[:5]
    answer, gains = [], []
    for position in order:
        expected = coverage.gain(int(position))
        got = coverage.take(int(position), answer, gains)
        assert got == expected
    assert gains == [int(g) for g in gains]
    assert coverage.covered_ids() == frozenset(
        gid
        for position in order
        for gid in coverage.universe.decode_ids(coverage.matrix[position])
    )
