"""Build-time metric spot checking (failure injection)."""

import pytest

from repro.ged import StarDistance
from repro.index import NBIndex
from tests.conftest import random_database


class TestValidateMetric:
    def test_true_metric_passes(self):
        db = random_database(seed=0, size=25)
        index = NBIndex.build(
            db, StarDistance(), num_vantage_points=3,
            seed=0, validate_metric=True,
        )
        assert index.embedding.coords.shape == (25, 3)

    def test_asymmetric_distance_rejected(self):
        db = random_database(seed=1, size=20)

        def asymmetric(g1, g2):
            return float(g1.graph_id * 31 + g2.graph_id)

        with pytest.raises(ValueError, match="not symmetric|!= 0"):
            NBIndex.build(
                db, asymmetric, num_vantage_points=3,
                seed=0, validate_metric=True,
            )

    def test_triangle_violation_rejected(self):
        db = random_database(seed=2, size=20)

        def non_metric(g1, g2):
            a, b = g1.graph_id, g2.graph_id
            if a == b:
                return 0.0
            # Huge distance for one specific pair, tiny otherwise — breaks
            # the triangle through any third point.
            lo, hi = min(a, b), max(a, b)
            return 1000.0 if (lo, hi) == (0, 1) else 1.0

        with pytest.raises(ValueError, match="triangle"):
            NBIndex.build(
                db, non_metric, num_vantage_points=3,
                seed=0, validate_metric=True,
            )

    def test_negative_distance_rejected(self):
        db = random_database(seed=3, size=15)

        def negative(g1, g2):
            return -1.0 if g1.graph_id != g2.graph_id else 0.0

        with pytest.raises(ValueError):
            NBIndex.build(
                db, negative, num_vantage_points=3,
                seed=0, validate_metric=True,
            )

    def test_default_skips_validation(self):
        """Without the flag, even a broken distance builds (documented:
        correctness is then the caller's problem)."""
        db = random_database(seed=4, size=12)
        calls = {"n": 0}

        def weird(g1, g2):
            calls["n"] += 1
            return abs(g1.graph_id - g2.graph_id) * 0.5

        index = NBIndex.build(
            db, weird, num_vantage_points=2, seed=0,
        )
        assert index is not None
