"""Dual-run equivalence gate: bitset hot paths vs the set-based reference.

The packed-bitset rewrite (:mod:`repro.bitset`) is only admissible if it
is invisible in the answers: same ids, same gains, same selection order,
same coverage — and the same work counters, since downstream analyses
read ``gain_evaluations``/``reheap_count`` as algorithm statistics, not
timings.  These tests run the retained pre-change implementation
(:mod:`repro.core.setgreedy`) against every bitset engine on identical
inputs: both greedy variants (with and without a range-query backend),
the NB-Index session (S=1) and the sharded coordinator (S=4).
"""

import numpy as np
import pytest

from repro.bench.hotpath import make_instance
from repro.core import (
    baseline_greedy,
    baseline_greedy_sets,
    lazy_greedy,
    lazy_greedy_sets,
)
from repro.ged import StarDistance
from repro.graphs import quartile_relevance
from repro.index import NBIndex


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
    assert got.stats.coordinator["broadcast_words"] >= 0


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
