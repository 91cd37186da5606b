"""Threshold ladders: sorted thresholds and slope-proportional placement."""

import pytest

from repro.ged import StarDistance
from repro.index import ThresholdLadder, choose_thresholds
from tests.conftest import random_database


class TestThresholdLadder:
    def test_sorted_and_deduplicated(self):
        ladder = ThresholdLadder([5.0, 1.0, 5.0, 3.0])
        assert ladder.values == (1.0, 3.0, 5.0)
        assert ladder == (1.0, 3.0, 5.0)
        assert len(ladder) == 3

    def test_iteration_and_getitem(self):
        ladder = ThresholdLadder([2.0, 1.0])
        assert list(ladder) == [1.0, 2.0]
        assert ladder[1] == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdLadder([])
        with pytest.raises(ValueError):
            ThresholdLadder([-1.0])


class TestChooseThresholds:
    def test_quantile_placement(self):
        db = random_database(seed=9, size=40)
        ladder = choose_thresholds(db.graphs, StarDistance(), count=5,
                                   num_pairs=300, rng=0)
        assert 1 <= len(ladder) <= 5
        values = list(ladder)
        assert values == sorted(values)

    def test_dense_regions_get_more_thresholds(self):
        # With a bimodal sample the quantile ladder must place more
        # thresholds inside the modes than between them; simulate via a
        # fake distance producing two clusters of values.
        class FakeDist:
            def __init__(self):
                self.flip = False

            def __call__(self, a, b):
                self.flip = not self.flip
                return 1.0 if self.flip else 100.0

        db = random_database(seed=9, size=40)
        ladder = choose_thresholds(db.graphs, FakeDist(), count=8,
                                   num_pairs=400, rng=0)
        middle = [v for v in ladder if 10 < v < 90]
        assert len(middle) <= 1  # the empty valley gets at most one

    def test_count_validation(self):
        db = random_database(seed=9, size=10)
        with pytest.raises(ValueError):
            choose_thresholds(db.graphs, StarDistance(), count=0)

