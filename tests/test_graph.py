"""Unit tests for the LabeledGraph data model."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ged import ExactGED, StarDistance
from repro.graphs import (
    DEFAULT_EDGE_LABEL,
    LabeledGraph,
    cycle_graph,
    path_graph,
    star_graph,
)
from tests.conftest import random_connected_graph


class TestConstruction:
    def test_empty_graph(self):
        g = LabeledGraph([])
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_nodes_and_labels(self):
        g = LabeledGraph(["C", "N", "O"])
        assert g.num_nodes == 3
        assert g.node_labels == ("C", "N", "O")
        assert g.node_label(1) == "N"
        assert list(g.nodes()) == [0, 1, 2]

    def test_edges_with_and_without_labels(self):
        g = LabeledGraph(["C", "C", "O"], [(0, 1), (1, 2, "=")])
        assert g.num_edges == 2
        assert g.edge_label(0, 1) == DEFAULT_EDGE_LABEL
        assert g.edge_label(1, 2) == "="
        assert g.edge_label(2, 1) == "="  # undirected

    def test_labels_coerced_to_str(self):
        g = LabeledGraph([1, 2], [(0, 1, 3)])
        assert g.node_labels == ("1", "2")
        assert g.edge_label(0, 1) == "3"

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            LabeledGraph(["C", "C"], [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            LabeledGraph(["C", "C"], [(0, 1), (1, 0)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="outside"):
            LabeledGraph(["C", "C"], [(0, 2)])

    def test_rejects_malformed_edge(self):
        with pytest.raises(ValueError, match="edge must be"):
            LabeledGraph(["C", "C"], [(0,)])


class TestAccessors:
    def test_neighbors_and_degree(self):
        g = star_graph("N", ["C", "C", "O"])
        assert g.degree(0) == 3
        assert sorted(g.neighbors(0)) == [1, 2, 3]
        assert g.degree(1) == 1

    def test_has_edge_symmetric(self):
        g = path_graph(["C", "N", "O"])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_edges_yields_each_once_with_u_lt_v(self):
        g = cycle_graph(["C", "C", "C", "C"])
        edges = list(g.edges())
        assert len(edges) == 4
        assert all(u < v for u, v, _ in edges)

    def test_label_histogram(self):
        g = LabeledGraph(["C", "C", "O"])
        assert g.label_histogram() == {"C": 2, "O": 1}

    def test_edge_label_histogram(self):
        g = LabeledGraph(["C", "C", "C"], [(0, 1, "-"), (1, 2, "=")])
        assert g.edge_label_histogram() == {"-": 1, "=": 1}


class TestStars:
    def test_star_of_leaf(self):
        g = path_graph(["C", "N", "O"])
        root, branches = g.star(0)
        assert root == "C"
        assert branches == ((DEFAULT_EDGE_LABEL, "N"),)

    def test_star_branches_sorted(self):
        g = LabeledGraph(["X", "B", "A"], [(0, 1), (0, 2)])
        _, branches = g.star(0)
        assert branches == ((DEFAULT_EDGE_LABEL, "A"), (DEFAULT_EDGE_LABEL, "B"))

    def test_stars_count(self):
        g = cycle_graph(["C"] * 5)
        assert len(g.stars()) == 5


class TestValueSemantics:
    def test_equality_same_structure(self):
        a = path_graph(["C", "N"])
        b = path_graph(["C", "N"])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_labels(self):
        assert path_graph(["C", "N"]) != path_graph(["C", "O"])

    def test_inequality_on_edges(self):
        a = LabeledGraph(["C", "C", "C"], [(0, 1)])
        b = LabeledGraph(["C", "C", "C"], [(1, 2)])
        assert a != b

    def test_graph_id_does_not_affect_equality(self):
        a = path_graph(["C", "N"])
        b = path_graph(["C", "N"])
        a.graph_id = 5
        b.graph_id = 9
        assert a == b

    def test_eq_other_type(self):
        assert path_graph(["C"]) != "not a graph"


class TestNetworkxInterop:
    def test_roundtrip(self):
        g = LabeledGraph(["C", "N", "O"], [(0, 1, "="), (1, 2, "-")])
        back = LabeledGraph.from_networkx(g.to_networkx())
        assert back == g

    def test_from_networkx_defaults(self):
        nxg = nx.Graph()
        nxg.add_edge("a", "b")
        g = LabeledGraph.from_networkx(nxg)
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert set(g.node_labels) == {"a", "b"}
        assert next(iter(g.edges()))[2] == DEFAULT_EDGE_LABEL


class TestHelpers:
    def test_path_graph(self):
        g = path_graph(["A", "B", "C"])
        assert g.num_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_cycle_graph_requires_three(self):
        with pytest.raises(ValueError):
            cycle_graph(["A", "B"])

    def test_cycle_graph(self):
        g = cycle_graph(["A", "B", "C"])
        assert g.num_edges == 3
        assert all(g.degree(v) == 2 for v in g.nodes())

    def test_star_graph(self):
        g = star_graph("X", ["A"] * 4)
        assert g.degree(0) == 4
        assert g.num_edges == 4

    def test_repr_mentions_sizes(self):
        g = path_graph(["A", "B"])
        assert "|V|=2" in repr(g)
        assert "|E|=1" in repr(g)


class TestPermuted:
    def test_identity_permutation(self):
        g = path_graph(["C", "N", "O"])
        assert g.permuted([0, 1, 2]) == g

    def test_non_bijection_rejected(self):
        g = path_graph(["C", "N"])
        with pytest.raises(ValueError, match="bijection"):
            g.permuted([0, 0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_permuted_preserves_structure_counts(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, int(rng.integers(2, 8)))
        p = g.permuted(rng.permutation(g.num_nodes))
        assert p.num_nodes == g.num_nodes
        assert p.num_edges == g.num_edges
        assert sorted(p.node_labels) == sorted(g.node_labels)

    def test_star_distance_invariant_under_permutation(self):
        rng = np.random.default_rng(3)
        sd = StarDistance()
        g = random_connected_graph(rng, 7)
        h = random_connected_graph(rng, 6)
        g2 = g.permuted(rng.permutation(7))
        assert sd(g, h) == pytest.approx(sd(g2, h))

    def test_exact_ged_zero_for_permuted(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 5)
        g2 = g.permuted(rng.permutation(5))
        assert ExactGED()(g, g2) == 0.0
