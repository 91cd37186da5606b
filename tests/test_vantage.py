"""Vantage embedding: Theorems 4–5 and candidate generation."""

import numpy as np
import pytest

from repro.ged import StarDistance
from repro.index import VantageEmbedding, select_vantage_points
from tests.conftest import random_database


def _setup(seed=3, size=50, num_vps=6):
    db = random_database(seed=seed, size=size)
    dist = StarDistance()
    vps = select_vantage_points(db.graphs, num_vps, rng=seed)
    return db, dist, VantageEmbedding(db.graphs, vps, dist)


class TestSelection:
    def test_random_selection_count_and_range(self):
        db = random_database(seed=1, size=30)
        vps = select_vantage_points(db.graphs, 5, rng=0)
        assert len(vps) == 5
        assert len(set(vps)) == 5
        assert all(0 <= v < 30 for v in vps)

    def test_maxmin_selection_spreads(self):
        db = random_database(seed=1, size=30)
        dist = StarDistance()
        vps = select_vantage_points(
            db.graphs, 4, rng=0, strategy="maxmin", distance=dist
        )
        assert len(set(vps)) == 4

    def test_maxmin_requires_distance(self):
        db = random_database(seed=1, size=10)
        with pytest.raises(ValueError, match="requires a distance"):
            select_vantage_points(db.graphs, 2, rng=0, strategy="maxmin")

    def test_unknown_strategy(self):
        db = random_database(seed=1, size=10)
        with pytest.raises(ValueError, match="unknown strategy"):
            select_vantage_points(db.graphs, 2, rng=0, strategy="bogus")

    def test_count_validation(self):
        db = random_database(seed=1, size=10)
        with pytest.raises(ValueError):
            select_vantage_points(db.graphs, 0, rng=0)
        with pytest.raises(ValueError):
            select_vantage_points(db.graphs, 11, rng=0)


class TestBounds:
    def test_lower_bound_is_lower_bound(self):
        db, dist, emb = _setup()
        rng = np.random.default_rng(0)
        for _ in range(40):
            i, j = int(rng.integers(50)), int(rng.integers(50))
            true = dist(db[i], db[j])
            assert emb.lower_bound(i, j) <= true + 1e-9

    def test_upper_bound_is_upper_bound(self):
        db, dist, emb = _setup()
        rng = np.random.default_rng(1)
        for _ in range(40):
            i, j = int(rng.integers(50)), int(rng.integers(50))
            true = dist(db[i], db[j])
            assert emb.upper_bound(i, j) >= true - 1e-9

    def test_bounds_zero_for_self(self):
        _, _, emb = _setup()
        assert emb.lower_bound(7, 7) == 0.0

    def test_vectorized_bounds_match_scalar(self):
        _, _, emb = _setup()
        among = np.arange(50)
        lows = emb.lower_bounds_to(emb.coords[3], among)
        ups = emb.upper_bounds_to(emb.coords[3], among)
        for j in range(50):
            assert lows[j] == pytest.approx(emb.lower_bound(3, j))
            assert ups[j] == pytest.approx(emb.upper_bound(3, j))

    def test_embed_external_graph_consistent(self):
        db, dist, emb = _setup()
        coords = emb.embed(db[5])
        assert np.allclose(coords, emb.coords[5])


class TestCandidates:
    def test_candidates_superset_of_true_neighborhood(self):
        db, dist, emb = _setup()
        theta = 5.0
        for i in range(0, 50, 7):
            candidates = set(int(c) for c in emb.candidates(i, theta))
            true = {
                j for j in range(50)
                if dist(db[i], db[j]) <= theta + 1e-9
            }
            assert true <= candidates

    def test_candidates_respect_among(self):
        _, _, emb = _setup()
        among = np.array([0, 2, 4, 6, 8])
        candidates = emb.candidates(4, 100.0, among=among)
        assert set(int(c) for c in candidates) <= set(int(a) for a in among)

    def test_candidates_exclude_vantage_violations(self):
        db, dist, emb = _setup()
        theta = 4.0
        candidates = set(int(c) for c in emb.candidates(0, theta))
        for j in range(50):
            if emb.lower_bound(0, j) > theta:
                assert j not in candidates

    def test_huge_theta_returns_everything(self):
        _, _, emb = _setup()
        assert len(emb.candidates(0, 1e9)) == 50

    def test_candidate_counts_match_naive(self):
        _, _, emb = _setup()
        among = np.arange(50)
        rows = np.array([0, 5, 10])
        thetas = [2.0, 5.0, 10.0]
        for block_rows in (None, 1, 2):  # one block, and blocks that split
            counts = emb.candidate_counts(rows, thetas, among, block_rows)
            for r, i in enumerate(rows):
                for t, theta in enumerate(thetas):
                    naive = len(emb.candidates(int(i), theta, among=among))
                    assert counts[r, t] == naive

    def test_candidate_counts_monotone_in_theta(self):
        _, _, emb = _setup()
        among = np.arange(50)
        counts = emb.candidate_counts(np.arange(10), [1.0, 3.0, 9.0, 27.0], among)
        assert (np.diff(counts, axis=1) >= 0).all()

    def test_requires_a_vantage_point(self):
        db = random_database(seed=1, size=5)
        with pytest.raises(ValueError):
            VantageEmbedding(db.graphs, [], StarDistance())


class TestTheBuildStoresNothing:
    """The n·|V| vantage block is the index, not pair-cache entries: after
    a build the engine's pair table is empty, and a vantage row's bounds
    are its coordinate column exactly — a query never needs such a pair
    from the cache."""

    @staticmethod
    def _check(engine, embedding):
        assert len(engine._cache) == 0
        vantage = embedding.vantage_indices
        everyone = np.arange(len(embedding))
        for column, v in enumerate(vantage):
            row = embedding.coords[v]
            want = embedding.coords[:, column].tolist()
            assert embedding.lower_bounds_to(row, everyone).tolist() == want
            assert embedding.upper_bounds_to(row, everyone).tolist() == want

    def test_nbindex_build(self):
        from repro import NBIndex
        from repro.datasets import GENERATORS

        database = GENERATORS["dud"](num_graphs=300, seed=11)
        index = NBIndex.build(
            database, StarDistance(), seed=11, num_vantage_points=8
        )
        self._check(index.engine, index.embedding)

    def test_build_shards(self, monkeypatch, tmp_path):
        """The bundle's build engine is the one the partitioner and the
        frame's embedding share."""
        from repro import build_shards
        from repro.datasets import GENERATORS
        from repro.index.vantage import VantageEmbedding
        from repro.shard import ShardedIndex

        engines = []
        real = VantageEmbedding.__init__

        def spy(self, graphs, vantage, engine, *args, **kwargs):
            engines.append(engine)
            real(self, graphs, vantage, engine, *args, **kwargs)

        monkeypatch.setattr(VantageEmbedding, "__init__", spy)
        database = GENERATORS["dud"](num_graphs=300, seed=12)
        manifest = build_shards(
            database, StarDistance(), num_shards=2, out_dir=tmp_path,
            seed=12, num_vantage_points=8,
        )
        monkeypatch.undo()
        index = ShardedIndex.load(manifest, database, StarDistance()).index
        (engine,) = engines
        assert engine is not index.engine
        self._check(engine, index.embedding)
