"""Generic metric-space support: vectors, payload adapters, Fig. 1(b)."""

import numpy as np
import pytest

from repro.baselines import div_topk
from repro.core import baseline_greedy
from repro.ged import check_metric_axioms
from repro.graphs.relevance import WeightedScoreThreshold
from repro.index import NBIndex
from repro.metricspace import (
    MinkowskiMetric,
    metric_space_database,
    vector_database,
)
from tests.test_nbindex import assert_valid_greedy_trajectory

ALL_RELEVANT_2D = WeightedScoreThreshold([0.0, 0.0], threshold=-1.0)


class TestMinkowskiMetric:
    def test_euclidean(self):
        metric = MinkowskiMetric(2.0)
        assert metric([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_manhattan(self):
        metric = MinkowskiMetric(1.0)
        assert metric([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_chebyshev(self):
        metric = MinkowskiMetric(float("inf"))
        assert metric([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            MinkowskiMetric(0.5)


class TestVectorDatabase:
    def test_axioms_hold_through_adapter(self):
        rng = np.random.default_rng(0)
        db, distance = vector_database(rng.normal(size=(8, 3)))
        assert check_metric_axioms(list(db)[:6], distance) == []

    def test_features_default_to_coordinates(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        db, _ = vector_database(points)
        assert np.allclose(db.features, points)

    def test_relevance_by_coordinate(self):
        points = np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 0.0]])
        db, _ = vector_database(points)
        q = WeightedScoreThreshold([1.0, 0.0], threshold=4.0)
        assert list(db.relevant_indices(q)) == [1, 2]

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="points"):
            vector_database(np.zeros(5))


class TestGenericAdapter:
    def test_string_edit_space(self):
        """Arbitrary payloads: strings under a simple metric."""

        def hamming_ish(a, b):
            longer, shorter = max(len(a), len(b)), min(len(a), len(b))
            mismatches = sum(1 for x, y in zip(a, b) if x != y)
            return mismatches + (longer - shorter)

        words = ["cat", "bat", "hat", "elephant", "elephont"]
        db, distance = metric_space_database(words, hamming_ish)
        assert distance(db[0], db[1]) == 1.0
        assert distance(db[3], db[4]) == 1.0
        assert distance(db[0], db[3]) == 8.0

    def test_payload_append(self):
        db, distance = metric_space_database([1.0, 2.0], lambda a, b: abs(a - b))
        new_pos = distance.append(5.0)
        assert new_pos == 2
        assert distance.payload(2) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metric_space_database([], lambda a, b: 0.0)


class TestFig1bScenario:
    """The paper's motivating geometry: cluster centers beat outliers."""

    def _space(self):
        rng = np.random.default_rng(1)
        cluster = np.vstack([
            np.zeros((1, 2)),
            rng.normal(0, 0.3, size=(9, 2)),
        ])
        outlier = np.array([[30.0, 30.0]])
        far_cluster = 20.0 + np.vstack([
            np.zeros((1, 2)),
            rng.normal(0, 0.3, size=(5, 2)),
        ])
        points = np.vstack([cluster, far_cluster, outlier])
        return vector_database(points), points

    def test_rep_prefers_cluster_centers_over_outliers(self):
        (db, distance), points = self._space()
        result = baseline_greedy(db, distance, ALL_RELEVANT_2D, 2.0, 2)
        outlier_id = len(points) - 1
        assert outlier_id not in result.answer
        # One pick per cluster.
        assert any(gid < 10 for gid in result.answer)
        assert any(10 <= gid < 16 for gid in result.answer)

    def test_rep_beats_div_coverage(self):
        (db, distance), _ = self._space()
        rep = baseline_greedy(db, distance, ALL_RELEVANT_2D, 2.0, 2)
        div = div_topk(db, distance, ALL_RELEVANT_2D, 2.0, 2, 1.0)
        assert rep.pi >= div.pi - 1e-9

    def test_nbindex_works_on_vector_space(self):
        (db, distance), _ = self._space()
        index = NBIndex.build(db, distance, num_vantage_points=4,
                              seed=0)
        result = index.query(ALL_RELEVANT_2D, 2.0, 2)
        assert_valid_greedy_trajectory(db, distance, ALL_RELEVANT_2D, 2.0, result)
