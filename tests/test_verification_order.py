"""The order a window is verified in: a ranking, never a filter.

``IndexFrontier.resolve`` verifies a window's undecided members in
deficit-sized batches from the front of one order
(``IndexFrontier._misses_first``).  On a graph metric the order is
descending ``lo + hi + 2·gap``
(the vantage sandwich plus :meth:`DistanceEngine.profile_gap`), the
likeliest misses first; where the engine has no gap (a vector metric) it
is descending ``lo``.  Either way it only decides which verdicts come
first, so:

* answers (ids, gains, order, coverage) equal ``baseline_greedy`` on a
  vector database, a plain index and a four-shard bundle (on the star
  metric every shape is ``tests/test_oracle.py``'s to referee);
* a ranking is a permutation of what it is handed and of what the
  lower-bound order makes of it — nothing added or dropped;
* the order is exactly descending ``lo`` on a vector metric, and
  descending ``lo + hi + 2·gap`` on the star metric, with the gap taken
  through the lens's engine (a memtable graph's through the global one);
* ranking a window only once a batch is a strict part of it verifies
  what ranking every window at once would;
* the cold pass of the ``dud_inproc`` benchmark instance pays at most
  0.92× the exact calls the lower-bound order paid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import baseline_greedy, quartile_relevance
from repro.datasets import GENERATORS
from repro.engine import DistanceEngine
from repro.ged import StarDistance
from repro.ged.bounds import assignment_lower_bound
from repro.index import save_index
from repro.index.frontier import IndexFrontier
from repro.index.nbindex import NBIndex
from repro.metricspace import vector_database
from repro.shard import ShardedIndex, build_shards
from tests.coordinated import cold
from tests.conftest import random_database

BUILD = dict(num_vantage_points=4)


@pytest.fixture(scope="module")
def star_shapes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("order-star")
    database = random_database(seed=43, size=64)
    distance = StarDistance()
    manifests = {
        s: build_shards(
            database, distance, num_shards=s, out_dir=tmp / f"s{s}", seed=0,
            **BUILD,
        )
        for s in (2, 4)
    }
    mutable = repro.open_index(
        manifests[2], database.subset(range(len(database))), distance,
        shards=True, mutable=True,
    )
    donors = random_database(seed=44, size=6)
    for i in range(len(donors)):
        mutable.insert(donors[i], database.features[i])
    mutable.delete(7)
    yield distance, {
        "S=1": NBIndex.build(database, distance, seed=0, **BUILD),
        "S=4": ShardedIndex.load(manifests[4], database, distance),
        "mutable S=2": mutable,
    }
    mutable.close()


@pytest.fixture(scope="module")
def vector_shapes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("order-vec")
    points = np.random.default_rng(45).normal(size=(80, 3))
    database, distance = vector_database(points)
    build = dict(num_vantage_points=4)
    manifest = build_shards(
        database, distance, num_shards=4, out_dir=tmp, seed=0, **build
    )
    return distance, {
        "S=1": NBIndex.build(database, distance, seed=0, **build),
        "S=4": ShardedIndex.load(manifest, database, distance),
    }


def _assert_same_as_greedy(distance, shapes, theta, quantile, k):
    for name, index in shapes.items():
        database = index.database
        q = quartile_relevance(database, quantile=quantile)
        want = baseline_greedy(database, distance, q, theta, k)
        got = index.query(q, theta, k)
        assert got.answer == want.answer, (name, theta)
        assert got.gains == want.gains, (name, theta)
        assert got.covered == want.covered, (name, theta)


@settings(max_examples=20, deadline=None)
@given(
    theta=st.floats(min_value=0.05, max_value=3.0),
    quantile=st.sampled_from([0.1, 0.4, 0.7]),
    k=st.integers(1, 10),
)
def test_vector_answers_equal_baseline_greedy(vector_shapes, theta, quantile, k):
    _assert_same_as_greedy(*vector_shapes, theta, quantile, k)


# ---------------------------------------------------------------------------
# The rankings themselves, as the queries take them
# ---------------------------------------------------------------------------
def _record_rankings(monkeypatch):
    """Spy on every ranking: ``(frontier, gid, unverified as handed in,
    as ranked, as the lower-bound order ranks it)``."""
    rankings = []
    rank = IndexFrontier._misses_first

    def spying(self, gid, unverified):
        with monkeypatch.context() as patch:
            patch.setattr(DistanceEngine, "profile_gap", lambda *_: None)
            by_lower = rank(self, gid, unverified)
        ranked = rank(self, gid, unverified)
        rankings.append((self, gid, unverified, ranked, by_lower))
        return ranked

    monkeypatch.setattr(IndexFrontier, "_misses_first", spying)
    return rankings


def _query_each(shapes, theta):
    for index in shapes.values():
        cold(index)
        index.query(quartile_relevance(index.database, quantile=0.3), theta, 6)


def _rank_each(monkeypatch, shapes, theta):
    rankings = {}
    for name, index in shapes.items():
        rankings[name] = _record_rankings(monkeypatch)
        _query_each({name: index}, theta)
        monkeypatch.undo()
        assert any(r[2].size > 1 for r in rankings[name]), name
    return rankings


def _sandwich(frontier, gid, ranks):
    """``(lo, hi, engine, member ids)`` of ``ranks`` in ``gid``'s window,
    recomputed from its lens."""
    row, engine = frontier._lens(gid)
    embedding = frontier.index.embedding
    ids = frontier.state.relevant_global[ranks]
    return (
        embedding.lower_bounds_to(row, ids), embedding.upper_bounds_to(row, ids),
        engine, ids,
    )


def _assert_descending_then_by_rank(score, ranks):
    step = np.diff(score)
    assert np.all(step <= 0), score
    tied = step == 0
    assert np.all(np.diff(ranks)[tied] > 0), ranks


@pytest.mark.parametrize("family", ["star", "vector"])
def test_a_ranking_is_a_permutation_of_the_lower_bound_order(
    request, monkeypatch, family,
):
    _, shapes = request.getfixturevalue(f"{family}_shapes")
    theta = 6.0 if family == "star" else 1.0
    for name, rankings in _rank_each(monkeypatch, shapes, theta).items():
        for _, gid, unverified, ranked, by_lower in rankings:
            assert ranked.size == np.unique(ranked).size, (name, gid)
            assert np.array_equal(np.sort(ranked), np.sort(unverified))
            assert np.array_equal(np.sort(ranked), np.sort(by_lower))


def test_a_vector_window_is_in_descending_lower_bound_order(
    vector_shapes, monkeypatch,
):
    _, shapes = vector_shapes
    for rankings in _rank_each(monkeypatch, shapes, 1.0).values():
        for frontier, gid, _, ranked, by_lower in rankings:
            assert np.array_equal(ranked, by_lower)
            lower, _, engine, members = _sandwich(frontier, gid, ranked)
            assert engine.profile_gap(gid, members) is None
            _assert_descending_then_by_rank(lower, ranked)


def test_a_star_window_ranks_by_the_midpoint_plus_the_profile_gap(
    star_shapes, monkeypatch,
):
    """Recomputed pair by pair with the scalar assignment bound over the
    lens's own graphs: a stranger's window (a memtable graph against the
    base) is measured through the global engine, in global ids."""
    _, shapes = star_shapes
    strangers = 0
    for rankings in _rank_each(monkeypatch, shapes, 6.0).values():
        for frontier, gid, _, ranked, _ in rankings:
            lower, upper, engine, members = _sandwich(frontier, gid, ranked)
            graphs = engine.graphs
            gap = np.array([
                assignment_lower_bound(graphs[gid], graphs[m])
                for m in members.tolist()
            ])
            if gid >= len(frontier.index.embedding):
                strangers += 1
                assert engine is frontier.global_engine
            _assert_descending_then_by_rank(lower + upper + 2 * gap, ranked)
    assert strangers > 0


def _verifications(monkeypatch, shapes, theta, *, eager):
    """Every ``_within`` batch of the queries, in order, as the set of
    members it verifies; ``eager`` ranks each window the moment it is
    opened instead of when it first matters."""
    batches = []
    within, window = IndexFrontier._within, IndexFrontier._window

    def recording(self, gid, ranks):
        batches.append((type(self).__name__, gid, sorted(ranks.tolist())))
        return within(self, gid, ranks)

    def ranking_at_once(self, gid):
        hits, unverified = window(self, gid)
        if unverified.size and gid not in self._ordered:
            unverified = self._misses_first(gid, unverified)
        return hits, unverified

    with monkeypatch.context() as patch:
        patch.setattr(IndexFrontier, "_within", recording)
        if eager:
            patch.setattr(IndexFrontier, "_window", ranking_at_once)
        _query_each(shapes, theta)
    return batches


@pytest.mark.parametrize("family", ["star", "vector"])
def test_ranking_when_it_first_matters_verifies_what_ranking_at_once_does(
    request, monkeypatch, family,
):
    """A window is ranked only once a batch is a strict part of what is
    left; ranking every window when it is opened verifies the same pairs,
    in the same batches (a whole window's one batch is merely listed in
    another order)."""
    _, shapes = request.getfixturevalue(f"{family}_shapes")
    theta = 6.0 if family == "star" else 1.0
    lazy = _verifications(monkeypatch, shapes, theta, eager=False)
    assert lazy
    assert lazy == _verifications(monkeypatch, shapes, theta, eager=True)


# ---------------------------------------------------------------------------
# The count it buys, pinned on the benchmark's own instance
# ---------------------------------------------------------------------------
#: Exact calls of ``dud_inproc``'s ten cold queries at seed 11 (n = 5 000,
#: 20 vantage points, one opened index) under the descending-lower-bound
#: order: 2 424.2 per query.
LOWER_BOUND_ORDER_COLD_CALLS = 24_242
DUD_THETA_K = ((8.0, 10), (10.0, 10), (8.0, 20), (12.0, 5))


def test_dud_inproc_cold_pass_pays_at_most_092_of_the_lower_bound_order(
    tmp_path,
):
    seed = 11
    database = GENERATORS["dud"](num_graphs=5000, seed=seed)
    save_index(
        NBIndex.build(database, StarDistance(), seed=seed, num_vantage_points=20),
        tmp_path / "index.npz",
    )
    index = repro.open_index(tmp_path / "index.npz", database)
    dims = np.random.default_rng([seed, 1]).permutation(database.num_features)
    calls = 0
    for position, dim in enumerate(dims[:10].tolist()):
        theta, k = DUD_THETA_K[position % len(DUD_THETA_K)]
        q = quartile_relevance(database, dims=[dim], quantile=0.97)
        calls += index.session(q).query(theta, k).stats.distance_calls
    assert calls <= 0.92 * LOWER_BOUND_ORDER_COLD_CALLS, calls
