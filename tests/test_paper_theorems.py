"""Direct tests of the paper's numbered theorems on concrete instances."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import all_theta_neighborhoods
from repro.ged import StarDistance
from repro.ged.metric import SLACK
from repro.graphs import GraphDatabase, LabeledGraph
from repro.graphs.relevance import WeightedScoreThreshold
from repro.index import NBIndex, VantageEmbedding, select_vantage_points
from tests.conftest import random_database


class TestTheorem3:
    """d(g1, g2) > 2(θ + SLACK) ⟹ N(g1) ∩ N(g2) = ∅, for the membership
    ``d ≤ θ + SLACK`` the code implements.  At θ = 8 − 1 ulp a plain
    ``> 2θ`` premise admits d = 16 while d = 8 counts as inside θ."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=50),
        st.floats(min_value=1.0, max_value=8.0),
    )
    @example(seed=16, theta=7.999999999999999)
    def test_disjoint_neighborhoods_beyond_two_theta(self, seed, theta):
        db = random_database(seed=seed, size=25)
        dist = StarDistance()
        relevant = list(range(25))
        neighborhoods = all_theta_neighborhoods(db, dist, relevant, theta)
        rng = np.random.default_rng(seed)
        for _ in range(15):
            a, b = int(rng.integers(25)), int(rng.integers(25))
            if a != b and dist(db[a], db[b]) > 2 * (theta + SLACK):
                assert not (neighborhoods[a] & neighborhoods[b])


class TestTheorem4:
    """d_v(g, g') > θ ⟹ g' ∉ N(g)."""

    def test_vantage_distance_excludes(self):
        db = random_database(seed=1, size=30)
        dist = StarDistance()
        vps = select_vantage_points(db.graphs, 4, rng=0)
        embedding = VantageEmbedding(db.graphs, vps, dist)
        theta = 4.0
        for i in range(0, 30, 5):
            for j in range(30):
                if embedding.lower_bound(i, j) > theta:
                    assert dist(db[i], db[j]) > theta


class TestFig4StylePropagation:
    """π̂ ceilings propagate up the tree (Eq. 14): every internal node's
    working bound is the max of its children's — replayed on a hand-built
    metric like the paper's Fig. 4 toy example."""

    def _toy_index(self):
        # Five objects on a line at positions 0, 1, 2, 10, 11 — two natural
        # clusters, as in the worked example's feature values.
        positions = [0.0, 1.0, 2.0, 10.0, 11.0]
        graphs = [LabeledGraph([f"g{i}"]) for i in range(5)]
        database = GraphDatabase(graphs, np.ones((5, 1)))
        pairs = {}

        class LineDistance:
            def __call__(self, a, b):
                return abs(positions[a.graph_id] - positions[b.graph_id])

        index = NBIndex.build(
            database, LineDistance(), num_vantage_points=2, seed=0,
        )
        return database, index

    def test_initial_bounds_are_the_vantage_window_counts(self):
        """Theorem 5 at θ itself: a member's first bound is its window
        count, never below its true neighbourhood (here, on a line, the
        vantage sandwich is exact)."""
        database, index = self._toy_index()
        q = WeightedScoreThreshold([1.0], threshold=0.0)  # all relevant
        session = index.session(q)
        assert session.pi_hat_column(1.5).tolist() == [2, 3, 2, 2, 2]

    def test_neighborhood_counts_match_line_geometry(self):
        database, index = self._toy_index()
        q = WeightedScoreThreshold([1.0], threshold=0.0)
        result = index.query(q, theta=1.5, k=2)
        # θ=1.5 on the line: {0,1,2} form one ball around 1; {3,4} another.
        assert result.pi == pytest.approx(1.0)
        assert sorted(result.gains, reverse=True) == [3, 2]


class TestTheorem1Scaling:
    """Reduction instances of growing size stay solvable and consistent."""

    @pytest.mark.parametrize("num_subsets,universe", [(3, 4), (5, 8), (7, 10)])
    def test_random_instances_equivalence(self, num_subsets, universe):
        from repro.core import (
            SetCoverInstance,
            baseline_greedy,
            reduce_set_cover,
        )

        rng = np.random.default_rng(num_subsets * 100 + universe)
        subsets = []
        for _ in range(num_subsets - 1):
            size = int(rng.integers(1, universe))
            subsets.append(frozenset(
                int(x) for x in rng.choice(universe, size=size, replace=False)
            ))
        # Guarantee joint coverage with a final catch-all subset.
        covered = frozenset().union(*subsets) if subsets else frozenset()
        subsets.append(frozenset(range(universe)) - covered or frozenset({0}))
        instance = SetCoverInstance(universe, tuple(subsets))
        reduced = reduce_set_cover(instance)

        result = baseline_greedy(
            reduced.database, reduced.distance, reduced.query_fn,
            reduced.theta, num_subsets,
        )
        chosen = reduced.subsets_of_answer(result.answer)
        # Greedy picks only subset gadgets, and with k = |S| it must cover.
        assert instance.is_cover(chosen)
        assert len(result.covered) == reduced.target_coverage(len(chosen))
