"""NB-Index persistence (save/load) and incremental insertion."""

import io

import numpy as np
import pytest

from repro.core import baseline_greedy
from repro.ged import StarDistance
from repro.graphs import GraphDatabase, path_graph, quartile_relevance
from repro.index import NBIndex, load_index, save_index
from repro.metricspace import vector_database
from repro.resilience.atomicio import read_checksummed, write_checksummed
from repro.resilience.errors import IndexFormatError
from tests.conftest import random_connected_graph, random_database
from tests.test_nbindex import assert_valid_greedy_trajectory


def _build(seed=0, size=50):
    db = random_database(seed=seed, size=size)
    dist = StarDistance()
    q = quartile_relevance(db, quantile=0.3)
    index = NBIndex.build(db, dist, num_vantage_points=5, seed=seed)
    return db, dist, q, index


class TestPersistence:
    def test_roundtrip_structure(self, tmp_path):
        db, dist, q, index = _build(seed=1)
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path, db, dist)
        assert np.array_equal(loaded.embedding.coords, index.embedding.coords)
        assert loaded.embedding.vantage_indices == index.embedding.vantage_indices
        with np.load(io.BytesIO(read_checksummed(path))) as data:
            assert int(data["format_version"][0]) == 5
            assert not any(key.startswith("node_") for key in data.files)
            assert "ladder" not in data.files

    def test_loaded_index_answers_queries(self, tmp_path):
        db, dist, q, index = _build(seed=2)
        path = tmp_path / "index.npz"
        save_index(index, path)
        loaded = load_index(path, db, dist)
        theta = 5.0
        original = index.query(q, theta, 4)
        reloaded = loaded.query(q, theta, 4)
        assert reloaded.answer == original.answer
        assert reloaded.gains == original.gains

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        db, dist, q, index = _build(seed=3, size=30)
        path = tmp_path / "index.npz"
        save_index(index, path)
        other = random_database(seed=99, size=30)
        with pytest.raises(ValueError, match="fingerprint"):
            load_index(path, other, dist)

    def test_wrong_size_database_rejected(self, tmp_path):
        db, dist, q, index = _build(seed=4, size=30)
        path = tmp_path / "index.npz"
        save_index(index, path)
        smaller = db.subset(range(10))
        with pytest.raises(ValueError, match="fingerprint"):
            load_index(path, smaller, dist)


class TestCoordinateStorage:
    """Format version 3: coordinates in the narrowest lossless dtype."""

    @staticmethod
    def _stored(path):
        with np.load(io.BytesIO(read_checksummed(path))) as data:
            return data["coords"], int(data["format_version"][0])

    def test_integral_coordinates_are_stored_narrow(self, tmp_path):
        db, dist, _, index = _build(seed=5)
        coords = index.embedding.coords
        assert coords.dtype == np.float64 and coords.max() < 256
        path = tmp_path / "index.npz"
        save_index(index, path)
        stored, version = self._stored(path)
        assert version == 5 and stored.dtype == np.uint8
        loaded = load_index(path, db, dist).embedding.coords
        assert loaded.dtype == np.float64 and np.array_equal(loaded, coords)
        # A single coordinate past the dtype widens it; one fraction or one
        # negative value keeps float64 — derived from the data, never lossy.
        for value, dtype in ((300.0, np.uint16), (0.5, np.float64),
                             (-1.0, np.float64)):
            coords[0, 0] = value
            save_index(index, path)
            stored, _ = self._stored(path)
            assert stored.dtype == dtype
            assert np.array_equal(
                load_index(path, db, dist).embedding.coords, coords
            )

    def test_float_coordinates_stay_float64(self, tmp_path):
        points = np.random.default_rng(0).normal(size=(40, 3))
        db, dist = vector_database(points)
        index = NBIndex.build(db, dist, num_vantage_points=3, seed=0)
        path = tmp_path / "index.npz"
        save_index(index, path)
        stored, _ = self._stored(path)
        assert stored.dtype == np.float64
        assert stored.tobytes() == index.embedding.coords.tobytes()

    def test_version_2_files_are_rejected(self, tmp_path):
        db, dist, _, index = _build(seed=6)
        path = tmp_path / "index.npz"
        save_index(index, path)
        with np.load(io.BytesIO(read_checksummed(path))) as data:
            arrays = dict(data)
        arrays["format_version"] = np.array([2])
        arrays["coords"] = arrays["coords"].astype(np.float64)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        write_checksummed(path, buffer.getvalue())
        with pytest.raises(IndexFormatError, match="version 2"):
            load_index(path, db, dist)

    def test_version_3_files_with_tree_arrays_still_answer(self, tmp_path):
        """A format-3 artifact carried the NB-Tree's arrays and a threshold
        ladder; they are ignored, and the index answers as the one it was
        written from."""
        db, dist, q, index = _build(seed=7)
        path = tmp_path / "index.npz"
        save_index(index, path)
        with np.load(io.BytesIO(read_checksummed(path))) as data:
            arrays = dict(data)
        n = len(db)
        arrays.update(
            format_version=np.array([3]),
            node_centroid=np.arange(n + 1, dtype=np.int64),
            node_radius=np.zeros(n + 1),
            node_diameter=np.zeros(n + 1),
            node_graph_index=np.array([-1, *range(n)], dtype=np.int64),
            node_parent=np.array([-1] + [0] * n, dtype=np.int64),
            root_id=np.array([0], dtype=np.int64),
            branching=np.array([8], dtype=np.int64),
            ladder=np.array([2.0, 4.0, 8.0]),
        )
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        write_checksummed(path, buffer.getvalue())
        loaded = load_index(path, db, dist)
        assert np.array_equal(loaded.embedding.coords, index.embedding.coords)
        for theta, k in ((3.0, 4), (5.0, 6)):
            want, got = index.query(q, theta, k), loaded.query(q, theta, k)
            assert (got.answer, got.gains, got.covered) == (
                want.answer, want.gains, want.covered
            )


class TestInsert:
    def test_insert_updates_database_and_embedding(self):
        db, dist, q, index = _build(seed=5, size=30)
        rng = np.random.default_rng(0)
        new_graph = random_connected_graph(rng, 5)
        new_id = index.insert(new_graph, np.zeros(db.num_features))
        assert new_id == 30
        assert len(db) == 31
        assert index.embedding.coords.shape == (31, 5)

    def test_geometry_stays_valid_after_inserts(self):
        db, dist, q, index = _build(seed=6, size=25)
        rng = np.random.default_rng(1)
        for _ in range(8):
            index.insert(
                random_connected_graph(rng, int(rng.integers(3, 8))),
                rng.random(db.num_features),
            )
        # Every stored coordinate is the exact distance to its vantage
        # graph (the invariant Theorems 4 and 5 use).
        vantage = index.embedding.vantage_indices
        for gid in range(len(db)):
            assert index.embedding.coords[gid].tolist() == [
                dist(db[v], db[gid]) for v in vantage
            ]

    def test_queries_remain_valid_greedy_after_inserts(self):
        db, dist, _, index = _build(seed=7, size=30)
        rng = np.random.default_rng(2)
        for _ in range(6):
            index.insert(
                random_connected_graph(rng, int(rng.integers(3, 8))),
                rng.random(db.num_features),
            )
        q = quartile_relevance(db, quantile=0.3)
        theta = 5.0
        result = index.query(q, theta, 4)
        assert_valid_greedy_trajectory(db, dist, q, theta, result)
        expected = baseline_greedy(db, dist, q, theta, 4)
        assert result.gains[0] == expected.gains[0]

    def test_inserted_graph_is_findable(self):
        """A new graph that duplicates an existing cluster member must be
        retrievable as part of neighborhoods."""
        db, dist, _, index = _build(seed=8, size=20)
        high = np.full(db.num_features, 10.0)  # certainly relevant
        # db[0] already has an id: the database adopts a renumbered copy.
        new_id = index.insert(db[0], high)
        assert (db[0].graph_id, db[new_id].graph_id) == (0, new_id)
        q = quartile_relevance(db, quantile=0.5)
        result = index.query(q, 1e-6, k=len(db))
        assert new_id in result.covered

    def test_single_graph_index_grows(self):
        graphs = [path_graph(["C", "C"])]
        db = GraphDatabase(graphs, np.zeros((1, 1)))
        dist = StarDistance()
        index = NBIndex.build(db, dist, num_vantage_points=1, seed=0)
        index.insert(path_graph(["C", "N"]), [1.0])
        assert index.embedding.coords.shape == (2, 1)
        result = index.query(lambda row: True, 100.0, 2)
        assert result.covered == frozenset({0, 1})

    def test_feature_dim_mismatch_rejected(self):
        db, dist, _, index = _build(seed=9, size=15)
        with pytest.raises(ValueError, match="dims"):
            index.insert(path_graph(["C"]), [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_save_load_after_inserts(self, tmp_path):
        """Persistence must capture the post-insert index exactly."""
        db, dist, q, index = _build(seed=10, size=25)
        rng = np.random.default_rng(3)
        for _ in range(5):
            index.insert(
                random_connected_graph(rng, int(rng.integers(3, 7))),
                rng.random(db.num_features),
            )
        path = tmp_path / "inserted.npz"
        save_index(index, path)
        loaded = load_index(path, db, dist)
        assert np.array_equal(loaded.embedding.coords, index.embedding.coords)
        original = index.query(q, 5.0, 3)
        reloaded = loaded.query(q, 5.0, 3)
        assert reloaded.answer == original.answer
