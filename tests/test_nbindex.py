"""NB-Index end-to-end correctness: the engine must realize the exact
greedy trajectory (same per-iteration gains and final π as Algorithm 1)."""

import numpy as np
import pytest

import repro
from repro.core import all_theta_neighborhoods, baseline_greedy
from repro.ged import StarDistance
from repro.graphs import GraphDatabase, LabeledGraph, quartile_relevance
from repro.index import NBIndex, ThresholdLadder
from tests.conftest import random_connected_graph, random_database, rungs


def _build(seed=0, size=70, **kwargs):
    db = random_database(seed=seed, size=size)
    dist = StarDistance()
    q = quartile_relevance(db, quantile=0.3)
    params = dict(num_vantage_points=6, seed=seed)
    params.update(kwargs)
    index = NBIndex.build(db, dist, **params)
    return db, dist, q, index


def assert_valid_greedy_trajectory(db, dist, q, theta, result):
    """Replay a trajectory and verify every selection had maximal marginal
    gain at its time — the greedy invariant behind the (1-1/e) guarantee.

    Two correct greedy engines may diverge after a tie (either argmax is
    legitimate), so this invariant — not gain-sequence equality — is the
    correctness criterion for cross-engine comparison.
    """
    relevant = [int(i) for i in db.relevant_indices(q)]
    neighborhoods = all_theta_neighborhoods(db, dist, relevant, theta)
    covered: set[int] = set()
    remaining = set(relevant)
    for chosen, gain in zip(result.answer, result.gains):
        best = max(len(neighborhoods[g] - covered) for g in remaining)
        assert gain == len(neighborhoods[chosen] - covered)
        assert gain == best
        covered |= neighborhoods[chosen]
        remaining.discard(chosen)
    assert result.covered == frozenset(covered)


class TestAgainstBaselineGreedy:
    @pytest.mark.parametrize("seed,theta,k", [
        (0, 4.0, 5),
        (1, 6.0, 8),
        (2, 3.0, 3),
        (3, 8.0, 10),
        (4, 5.0, 6),
    ])
    def test_valid_greedy_trajectory_and_first_gain(self, seed, theta, k):
        db, dist, q, index = _build(seed=seed)
        expected = baseline_greedy(db, dist, q, theta, k)
        actual = index.query(q, theta, k)
        assert_valid_greedy_trajectory(db, dist, q, theta, actual)
        # The first gain is tie-break independent: it is max |N(g)|.
        assert actual.gains[0] == expected.gains[0]
        assert len(actual.answer) == len(expected.answer)

    def test_covered_set_is_true_union(self):
        db, dist, q, index = _build(seed=5)
        theta = 5.0
        result = index.query(q, theta, 4)
        relevant = [int(i) for i in db.relevant_indices(q)]
        neighborhoods = all_theta_neighborhoods(db, dist, relevant, theta)
        union: set[int] = set()
        for gid in result.answer:
            union |= neighborhoods[gid]
        assert result.covered == frozenset(union)


class TestTieBreakDeterminism:
    """Equal-gain ties must resolve to the smallest graph id everywhere, so
    the trajectory is a *canonical* greedy — identical to baseline_greedy
    answer-for-answer and independent of tree shape or partitioning."""

    @pytest.mark.parametrize("seed,theta,k", [
        (0, 4.0, 5),
        (3, 8.0, 10),
        (13, 5.0, 7),
        (21, 3.0, 12),
    ])
    def test_exact_match_with_baseline_greedy(self, seed, theta, k):
        db, dist, q, index = _build(seed=seed)
        expected = baseline_greedy(db, dist, q, theta, k)
        actual = index.query(q, theta, k)
        assert actual.answer == expected.answer
        assert actual.gains == expected.gains
        assert actual.covered == expected.covered

    def test_adversarial_all_ties_select_in_id_order(self):
        # A database of identical graphs: every distance is 0, so every
        # selection at every step is a pure tie.  The canonical rule must
        # pick ids in ascending order: 0 first (covers everything), then
        # the smallest remaining id each round.
        rng = np.random.default_rng(17)
        g = random_connected_graph(rng, 5)
        n = 12
        graphs = [LabeledGraph(g.node_labels, g.edges()) for _ in range(n)]
        db = GraphDatabase(graphs, np.zeros((n, 1)))
        dist = StarDistance()

        class AllRelevant:
            def mask(self, matrix):
                return np.ones(matrix.shape[0], dtype=bool)

        q = AllRelevant()
        index = NBIndex.build(db, dist, num_vantage_points=3, seed=2)
        result = index.query(q, 0.5, 6)
        assert result.answer == list(range(6))
        assert result.gains == [n] + [0] * 5
        expected = baseline_greedy(db, dist, q, 0.5, 6)
        assert result.answer == expected.answer

    def test_duplicated_graphs_match_baseline(self):
        # Half the database duplicates the other half: lots of partial
        # ties without the degenerate all-zero geometry.
        base = random_database(seed=31, size=24)
        graphs = [LabeledGraph(g.node_labels, g.edges()) for g in base.graphs]
        graphs += [LabeledGraph(g.node_labels, g.edges()) for g in base.graphs]
        rng = np.random.default_rng(31)
        db = GraphDatabase(graphs, rng.random((len(graphs), 2)))
        dist = StarDistance()
        q = quartile_relevance(db, quantile=0.3)
        index = NBIndex.build(db, dist, num_vantage_points=5, seed=3)
        expected = baseline_greedy(db, dist, q, 4.0, 8)
        actual = index.query(q, 4.0, 8)
        assert actual.answer == expected.answer
        assert actual.gains == expected.gains


class TestBudgetEdgeCases:
    def test_k_larger_than_relevant_set(self):
        db, dist, q, index = _build(seed=6, size=40)
        relevant = db.relevant_indices(q)
        result = index.query(q, 5.0, k=len(relevant) + 50)
        assert len(result.answer) <= len(relevant)

    def test_stop_on_zero_gain(self):
        db, dist, q, index = _build(seed=7)
        full = index.query(q, 1e6, 10)  # everything within θ of anything
        stopped = index.query(q, 1e6, 10, stop_on_zero_gain=True)
        assert len(stopped.answer) == 1  # first pick covers all
        assert stopped.pi == pytest.approx(1.0)
        assert len(full.answer) == 10

    def test_no_relevant_graphs(self):
        db = random_database(seed=8, size=30)
        dist = StarDistance()
        index = NBIndex.build(db, dist, num_vantage_points=4, seed=0)

        class NoneRelevant:
            def mask(self, matrix):
                return np.zeros(matrix.shape[0], dtype=bool)

        result = index.query(NoneRelevant(), 5.0, 3)
        assert result.answer == []
        assert result.pi == 0.0

    def test_parameter_validation(self):
        db, dist, q, index = _build(seed=9, size=30)
        with pytest.raises(ValueError):
            index.query(q, -1.0, 3)
        with pytest.raises(ValueError):
            index.query(q, 5.0, 0)


class TestLadderInteraction:
    def test_theta_beyond_ladder_is_answered(self):
        """π̂ is taken at θ itself, so a θ above any ladder is answered —
        the greedy's answer, with nothing logged."""
        db, dist, q, index = _build(seed=10)
        theta = 50.0
        with repro.observe() as run:
            actual = index.query(q, theta, 4)
        assert_valid_greedy_trajectory(db, dist, q, theta, actual)
        expected = baseline_greedy(db, dist, q, theta, 4)
        assert (actual.answer, actual.gains) == (expected.answer, expected.gains)
        assert "index.offladder_theta" not in run.stats()["counters"]

    def test_tight_ladder_fewer_evaluations_than_trivial(self):
        """``thresholds=`` is accepted and ignored: a tight and a trivial
        ladder give the same search (no more evaluations with either)."""
        db, dist, q, _ = _build(seed=11)
        theta = 4.0
        tight = NBIndex.build(
            db, dist, num_vantage_points=6, seed=11,
            thresholds=ThresholdLadder([theta]),
        )
        loose = NBIndex.build(
            db, dist, num_vantage_points=6, seed=11,
            thresholds=ThresholdLadder([1000.0]),
        )
        r_tight = tight.query(q, theta, 5)
        r_loose = loose.query(q, theta, 5)
        assert_valid_greedy_trajectory(db, dist, q, theta, r_tight)
        assert (r_tight.answer, r_tight.gains) == (r_loose.answer, r_loose.gains)
        assert (
            r_tight.stats.leaves_evaluated == r_loose.stats.leaves_evaluated
        )


class TestSessions:
    def test_session_reuse_matches_fresh_queries(self):
        db, dist, q, index = _build(seed=12)
        session = index.session(q)
        for theta in (3.0, 5.0, 4.0, 6.0):
            fresh = index.query(q, theta, 5)
            reused = session.query(theta, 5)
            assert_valid_greedy_trajectory(db, dist, q, theta, reused)
            assert reused.answer == fresh.answer, theta
            assert reused.gains == fresh.gains

    def test_pi_hat_columns_cached(self):
        db, dist, q, index = _build(seed=13)
        session = index.session(q)
        theta = rungs(db.graphs, dist)[2]
        session.query(theta, 3)
        columns = index._member_state(session)._pi_hat_columns
        cached = len(columns)
        session.query(theta, 3)
        assert len(columns) == cached

    def test_repeated_query_same_answer(self):
        db, dist, q, index = _build(seed=14)
        session = index.session(q)
        first = session.query(5.0, 5)
        second = session.query(5.0, 5)
        assert first.answer == second.answer
        assert first.gains == second.gains


class TestStatsAndMemory:
    def test_stats_populated(self):
        db, dist, q, index = _build(seed=15)
        result = index.query(q, 5.0, 4)
        assert result.stats.exact_neighborhoods >= len(result.answer)
        assert result.stats.nodes_popped > 0
        assert result.stats.total_seconds > 0.0

    def test_fewer_exact_neighborhoods_than_relevant(self):
        """The point of the index: most graphs never get their exact
        neighborhood computed."""
        db, dist, q, index = _build(seed=16, size=90)
        relevant = len(db.relevant_indices(q))
        result = index.query(q, 3.0, 5)
        assert result.stats.exact_neighborhoods < relevant

    def test_memory_bytes_positive_and_monotone(self):
        db_small, dist, _, index_small = _build(seed=17, size=40)
        _, _, _, index_large = _build(seed=17, size=90)
        assert 0 < index_small.stats()["memory_bytes"] < index_large.stats()["memory_bytes"]

    def test_build_records_time_and_calls(self):
        _, _, _, index = _build(seed=18, size=40)
        assert index.build_seconds > 0
        assert index.stats()["distance_calls"] > 0

    def test_repr(self):
        _, _, _, index = _build(seed=19, size=30)
        assert "NBIndex" in repr(index)
