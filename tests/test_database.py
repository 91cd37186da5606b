"""Unit tests for GraphDatabase."""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.datasets import GENERATORS
from repro.engine import DistanceEngine
from repro.ged import StarDistance
from repro.graphs import GraphDatabase, path_graph
from repro.graphs.relevance import WeightedScoreThreshold


def _graphs(n):
    return [path_graph(["C"] * (i % 3 + 1)) for i in range(n)]


class TestConstruction:
    def test_basic(self):
        db = GraphDatabase(_graphs(4), np.arange(8).reshape(4, 2))
        assert len(db) == 4
        assert db.num_features == 2

    def test_one_dimensional_features_reshaped(self):
        db = GraphDatabase(_graphs(3), [1.0, 2.0, 3.0])
        assert db.features.shape == (3, 1)

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError, match="feature rows"):
            GraphDatabase(_graphs(3), np.zeros((2, 2)))

    def test_three_dimensional_features_rejected(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            GraphDatabase(_graphs(2), np.zeros((2, 2, 2)))

    def test_graph_ids_assigned_densely(self):
        db = GraphDatabase(_graphs(5), np.zeros(5))
        assert [g.graph_id for g in db] == [0, 1, 2, 3, 4]

    def test_features_read_only(self):
        db = GraphDatabase(_graphs(2), np.zeros(2))
        with pytest.raises(ValueError):
            db.features[0, 0] = 1.0


class TestAccess:
    def test_getitem_and_iter(self):
        db = GraphDatabase(_graphs(3), np.zeros(3))
        assert db[1].graph_id == 1
        assert len(list(db)) == 3

    def test_feature_vector(self):
        db = GraphDatabase(_graphs(2), [[1.0, 2.0], [3.0, 4.0]])
        assert list(db.feature_vector(1)) == [3.0, 4.0]


class TestRelevance:
    def test_vectorized_query(self):
        db = GraphDatabase(_graphs(4), [[0.0], [1.0], [2.0], [3.0]])
        q = WeightedScoreThreshold([1.0], threshold=2.0)
        assert list(db.relevant_indices(q)) == [2, 3]

    def test_plain_callable_query(self):
        db = GraphDatabase(_graphs(4), [[0.0], [1.0], [2.0], [3.0]])
        assert list(db.relevant_indices(lambda row: row[0] >= 1.0)) == [1, 2, 3]

    def test_no_relevant(self):
        db = GraphDatabase(_graphs(2), [[0.0], [0.0]])
        q = WeightedScoreThreshold([1.0], threshold=5.0)
        assert db.relevant_indices(q).size == 0


class TestSubsetAndSample:
    def test_subset_renumbers(self):
        db = GraphDatabase(_graphs(5), np.arange(5.0))
        sub = db.subset([1, 3])
        assert len(sub) == 2
        assert [g.graph_id for g in sub] == [0, 1]
        assert list(sub.features[:, 0]) == [1.0, 3.0]

    def test_sample_size_validation(self):
        db = GraphDatabase(_graphs(3), np.zeros(3))
        with pytest.raises(ValueError):
            db.sample(10, np.random.default_rng(0))

    def test_sample_deterministic(self):
        db = GraphDatabase(_graphs(10), np.arange(10.0))
        a = db.sample(4, np.random.default_rng(5))
        b = db.sample(4, np.random.default_rng(5))
        assert np.array_equal(a.features, b.features)


class TestStructureSharing:
    """``subset`` hands out O(1) copies: own id, the original's structure."""

    def test_subset_graphs_share_their_originals_structure(self):
        db = GENERATORS["dud"](num_graphs=12, seed=3)
        picked = [7, 2, 9]
        sub = db.subset(picked)
        for position, original in enumerate(picked):
            copy = sub[position]
            assert copy is not db[original]
            assert copy == db[original]
            assert copy._csr is db[original]._csr
            assert copy._slot_labels is db[original]._slot_labels
            assert copy._node_labels is db[original]._node_labels
            assert copy.num_edges == db[original].num_edges
        assert [g.graph_id for g in sub] == [0, 1, 2]
        assert [g.graph_id for g in db] == list(range(12))

    def test_copies_survive_a_pickle_round_trip(self):
        # A structure-sharing copy must pickle to a standalone graph.
        db = GENERATORS["dud"](num_graphs=8, seed=3)
        sub = db.subset([5, 1])
        shipped = pickle.loads(pickle.dumps(list(sub.graphs)))
        assert shipped == list(sub.graphs)
        assert [g.graph_id for g in shipped] == [0, 1]
        assert [g.stars() for g in shipped] == [g.stars() for g in sub]

    def test_star_distance_through_a_copy_equals_through_the_original(self):
        db = GENERATORS["dud"](num_graphs=10, seed=3)
        sub = db.subset([6, 0, 3])
        star = StarDistance()
        assert star(sub[0], sub[2]) == star(db[6], db[3])
        batch = DistanceEngine(StarDistance(), graphs=sub.graphs)
        whole = DistanceEngine(StarDistance(), graphs=db.graphs)
        assert list(batch.one_to_many(0, [1, 2])) == list(
            whole.one_to_many(6, [0, 3])
        )

    def test_subset_allocates_pointers_not_graphs(self):
        db = GENERATORS["dud"](num_graphs=5000, seed=3)
        everything = range(len(db))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sub = db.subset(everything)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(sub) == 5000
        # Rebuilding the adjacency dicts took ~24 MB here.
        assert allocated < 2 * 1024 * 1024


class TestAdoption:
    """A database never renumbers a graph that carries another id — it
    used to, which renumbered the graph's *owner* behind its back."""

    def test_second_database_over_the_same_graphs_leaves_the_first_intact(self):
        a = GENERATORS["dud"](num_graphs=12, seed=3)
        truth = StarDistance()(a[0], a[6])
        assert truth > 0.0
        b = GraphDatabase(a.graphs[6:], a.features[6:])
        assert [g.graph_id for g in a] == list(range(12))
        assert [g.graph_id for g in b] == list(range(6))
        assert b[0] == a[6] and b[0]._csr is a[6]._csr
        assert b[0]._slot_labels is a[6]._slot_labels
        # Aliased ids used to alias pair-cache keys: d(0, 6) came back 0.0.
        engine = DistanceEngine(StarDistance(), graphs=a.graphs)
        assert engine(0, 6) == truth

    def test_append_does_not_renumber_the_callers_graph(self):
        a = GENERATORS["dud"](num_graphs=6, seed=3)
        c = GraphDatabase(a.graphs[:4], a.features[:4])
        assert all(mine is theirs for mine, theirs in zip(c, a))  # same ids
        new_id = c.append(a.graphs[2], a.features[2])
        assert new_id == 4 and c[4].graph_id == 4
        assert a.graphs[2].graph_id == 2
        assert c[4] == a[2] and c[4] is not a[2]

    def test_fresh_graphs_are_numbered_in_place(self):
        graphs = _graphs(3)
        db = GraphDatabase(graphs, np.zeros(3))
        assert all(mine is given for mine, given in zip(db, graphs))
        extra = path_graph(["N"])
        assert db[db.append(extra, [0.0])] is extra


class TestSummary:
    def test_summary_fields(self):
        db = GraphDatabase(
            [path_graph(["C", "C"]), path_graph(["C", "C", "C"])], np.zeros(2)
        )
        s = db.summary()
        assert s["num_graphs"] == 2
        assert s["avg_nodes"] == 2.5
        assert s["avg_edges"] == 1.5
