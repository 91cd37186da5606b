"""Deep NB-Index invariants: Theorem-5 π̂ validity, stale-bound safety,
multi-seed greedy correctness, and randomized range-query equivalence for
the metric trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import CTree, MTree
from repro.core import all_theta_neighborhoods
from repro.ged import StarDistance
from repro.graphs import quartile_relevance
from repro.index import NBIndex
from tests.conftest import random_database, rungs
from tests.test_nbindex import assert_valid_greedy_trajectory


def _build(seed=0, size=60):
    db = random_database(seed=seed, size=size)
    dist = StarDistance()
    q = quartile_relevance(db, quantile=0.3)
    index = NBIndex.build(db, dist, num_vantage_points=6, seed=seed)
    return db, dist, q, index


class TestPiHatValidity:
    """Def. 6 / Theorem 5: π̂ entries upper-bound true neighborhood sizes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pi_hat_column_upper_bounds_true_counts(self, seed):
        db, dist, q, index = _build(seed=seed)
        session = index.session(q)
        relevant = [int(i) for i in session.relevant]
        for theta_i in rungs(db.graphs, dist):
            column = session.pi_hat_column(theta_i)
            neighborhoods = all_theta_neighborhoods(db, dist, relevant, theta_i)
            for position, gid in enumerate(relevant):
                assert column[position] >= len(neighborhoods[gid])

    def test_trivial_column_is_relevant_count(self):
        """Above every distance, π̂ is the trivial bound |L_q|."""
        db, dist, q, index = _build(seed=3)
        session = index.session(q)
        column = session.pi_hat_column(1e9)
        assert (column == session.relevant.size).all()


class TestUpdateStepSafety:
    """Bounds left stale after a selection (no Theorem 6–8 update step)
    must never break greedy correctness, at any θ."""

    @pytest.mark.parametrize("seed", range(10))
    def test_multi_seed_argmax_validity_with_updates(self, seed):
        db, dist, q, index = _build(seed=seed, size=50)
        theta = 3.0 + (seed % 4) * 1.5
        result = index.query(q, theta, 6)
        assert_valid_greedy_trajectory(db, dist, q, theta, result)

    def test_large_theta_exercises_theorem_7_regime(self):
        """θ above most pairwise distances, where the paper's Theorem 7
        would batch-decrement: the trajectory must stay exact."""
        db, dist, q, index = _build(seed=11, size=50)
        distances = [dist(db[a], db[b]) for a in range(50) for b in range(a)]
        theta = float(np.percentile(distances, 75)) + 1.0
        result = index.query(q, theta, 5)
        assert_valid_greedy_trajectory(db, dist, q, theta, result)

    def test_tiny_theta_exercises_theorem_6_regime(self):
        db, dist, q, index = _build(seed=12, size=50)
        result = index.query(q, 0.5, 5)
        assert_valid_greedy_trajectory(db, dist, q, 0.5, result)


class TestRandomizedTreeEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.5, max_value=12.0),
    )
    def test_mtree_range_query_matches_scan(self, seed, theta):
        db = random_database(seed=seed % 100, size=30)
        dist = StarDistance()
        tree = MTree(db.graphs, dist, capacity=4, seed=seed)
        probe = seed % 30
        expected = sorted(
            j for j in range(30)
            if dist(db[probe], db[j]) <= theta + 1e-9
        )
        assert sorted(tree.range_query(probe, theta)) == expected

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.5, max_value=12.0),
    )
    def test_ctree_range_query_matches_scan(self, seed, theta):
        db = random_database(seed=seed % 100, size=30)
        dist = StarDistance()
        tree = CTree(db.graphs, dist, capacity=4, seed=seed)
        probe = (seed // 7) % 30
        expected = sorted(
            j for j in range(30)
            if dist(db[probe], db[j]) <= theta + 1e-9
        )
        assert sorted(tree.range_query(probe, theta)) == expected
