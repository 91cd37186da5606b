"""Unit tests for the LabeledGraph data model."""

import copy
import pickle

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
from tests.strategies import graph_specs


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


# ---------------------------------------------------------------------------
# The packed (CSR) graph against a dict-adjacency reference
# ---------------------------------------------------------------------------
class DictGraph:
    """Reference model: one ``{neighbour: label}`` dict per vertex, built
    and validated edge by edge — the representation the packed graph
    replaced, kept here as the oracle for every accessor."""

    def __init__(self, node_labels, edges=()):
        self.labels = tuple(str(l) for l in node_labels)
        n = len(self.labels)
        self.adj = [{} for _ in range(n)]
        for edge in edges:
            if len(edge) == 2:
                (u, v), label = edge, DEFAULT_EDGE_LABEL
            elif len(edge) == 3:
                u, v, label = edge
                label = str(label)
            else:
                raise ValueError(f"edge must be (u, v) or (u, v, label), got {edge!r}")
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {edge!r} references a vertex outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop on vertex {u} is not allowed")
            if v in self.adj[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            self.adj[u][v] = label
            self.adj[v][u] = label

    def edges(self):
        return [
            (u, v, label)
            for u, nbrs in enumerate(self.adj)
            for v, label in nbrs.items()
            if u < v
        ]

    def star(self, v):
        branches = sorted((label, self.labels[u]) for u, label in self.adj[v].items())
        return (self.labels[v], tuple(branches))

    def canonical_form(self):
        return (self.labels, tuple(sorted(self.edges())))


#: n ∈ {0, 1, 2, 3..12, 300}: repeated labels, isolated vertices, edges in
#: random order and orientation, with and without labels.
_SPECS = graph_specs(
    nodes=st.one_of(st.sampled_from([0, 1, 2, 300]), st.integers(3, 12)),
    labels="CCNO", edge_labels=(None, "-", "=", "#", 2),
)


def _probe_pairs(ref):
    """Every pair on small graphs; every edge plus a spread of non-edges
    on large ones."""
    n = len(ref.labels)
    for u in range(n):
        if n <= 40:
            yield from ((u, v) for v in range(n))
        else:
            yield from ((u, v) for v in ref.adj[u])
            yield from ((u, (u * 7 + k) % n) for k in range(6))


def assert_matches_reference(g, ref):
    n = len(ref.labels)
    assert g.num_nodes == n and g.node_labels == ref.labels
    assert g.num_edges == sum(map(len, ref.adj)) // 2
    tokens = g.branch_tokens()
    for v in range(n):
        assert list(g.neighbors(v)) == list(ref.adj[v])  # insertion order
        assert g.degree(v) == len(ref.adj[v])
        assert tokens[v] == [(l, ref.labels[u]) for u, l in ref.adj[v].items()]
        assert g.star(v) == ref.star(v)
    assert g.degrees() == [len(row) for row in ref.adj]
    assert g.edge_maps() == ref.adj
    assert [list(row.items()) for row in g.edge_maps()] == [list(row.items()) for row in ref.adj]
    for u, v in _probe_pairs(ref):
        assert g.has_edge(u, v) == (v in ref.adj[u])
        if v in ref.adj[u]:
            assert g.edge_label(u, v) == ref.adj[u][v]
        else:
            with pytest.raises(KeyError):
                g.edge_label(u, v)
    assert list(g.edges()) == ref.edges()
    assert g.stars() == [ref.star(v) for v in range(n)]
    assert g.canonical_form() == ref.canonical_form()


class TestPackedAgainstDictReference:
    @settings(max_examples=60, deadline=None)
    @given(_SPECS)
    def test_every_accessor_matches(self, spec):
        labels, edges = spec
        g = LabeledGraph(labels, edges)
        assert_matches_reference(g, DictGraph(labels, edges))

    @settings(max_examples=30, deadline=None)
    @given(_SPECS, st.randoms(use_true_random=False))
    def test_equality_and_hash_follow_the_edge_set(self, spec, rnd):
        labels, edges = spec
        g = LabeledGraph(labels, edges, graph_id=3)
        shuffled = [tuple(reversed(e[:2])) + e[2:] for e in edges]
        rnd.shuffle(shuffled)
        h = LabeledGraph(labels, shuffled, graph_id=9)
        assert g == h and hash(g) == hash(h)
        if edges:
            fewer = LabeledGraph(labels, edges[1:])
            assert g != fewer
            assert DictGraph(labels, edges).canonical_form() != fewer.canonical_form()

    @settings(max_examples=30, deadline=None)
    @given(_SPECS, st.randoms(use_true_random=False))
    def test_permuted_matches_the_permuted_reference(self, spec, rnd):
        labels, edges = spec
        g = LabeledGraph(labels, edges)
        mapping = list(range(len(labels)))
        rnd.shuffle(mapping)
        new_labels = [""] * len(labels)
        for old, new in enumerate(mapping):
            new_labels[new] = labels[old]
        ref = DictGraph(new_labels, [
            (mapping[u], mapping[v], label)
            for u, v, label in DictGraph(labels, edges).edges()
        ])
        assert_matches_reference(g.permuted(mapping), ref)

    @settings(max_examples=30, deadline=None)
    @given(_SPECS)
    def test_renumbered_shares_structure(self, spec):
        labels, edges = spec
        g = LabeledGraph(labels, edges, graph_id=4)
        copy = g.renumbered(11)
        assert copy.graph_id == 11 and g.graph_id == 4
        assert copy._node_labels is g._node_labels
        assert copy._csr is g._csr
        assert copy._slot_labels is g._slot_labels
        assert_matches_reference(copy, DictGraph(labels, edges))

    @settings(max_examples=30, deadline=None)
    @given(_SPECS, st.sampled_from(["pickle", "deepcopy"]))
    def test_round_trips_keep_structure_and_id(self, spec, how):
        labels, edges = spec
        g = LabeledGraph(labels, edges, graph_id=7)
        back = (
            pickle.loads(pickle.dumps(g)) if how == "pickle"
            else copy.deepcopy(g)
        )
        assert back.graph_id == 7 and back == g and hash(back) == hash(g)
        assert_matches_reference(back, DictGraph(labels, edges))

    @settings(max_examples=40, deadline=None)
    @given(
        _SPECS,
        st.sampled_from([(0,), (0, 1, "-", 4), (0, 999), (-1, 0), (1, 1), "dup"]),
        st.integers(0, 400),
    )
    def test_constructor_errors_match(self, spec, bad, at):
        labels, edges = spec
        if len(labels) < 2:
            labels = ["C", "N"]
            edges = [(0, 1)]
        if bad == "dup":
            u, v = edges[0][:2] if edges else (0, 1)
            bad = (v, u, "=")
            if not edges:
                edges = [(0, 1)]
        edges = list(edges)
        edges.insert(min(at, len(edges)), bad)
        with pytest.raises(ValueError) as want:
            DictGraph(labels, edges)
        with pytest.raises(ValueError) as got:
            LabeledGraph(labels, iter(edges))
        assert str(got.value) == str(want.value)

    def test_the_four_constructor_errors(self):
        for edges, message in (
            ([(0,)], "edge must be"),
            ([(0, 5)], "outside"),
            ([(1, 1)], "self-loop"),
            ([(0, 1), (1, 0)], "duplicate"),
        ):
            with pytest.raises(ValueError, match=message):
                LabeledGraph(["C", "N", "O"], edges)

    def test_wide_graphs_pack_into_wider_words(self):
        n = 70_000
        edges = [(0, n - 1, "="), (n - 1, 5), (5, 6)]
        g = LabeledGraph(["C"] * n, edges)
        assert g._csr.typecode == "q"
        ref = DictGraph(["C"] * n, edges)
        assert list(g.edges()) == ref.edges()
        for v in (0, 5, 6, 7, n - 1):
            assert list(g.neighbors(v)) == list(ref.adj[v])
            assert [g.edge_label(v, u) for u in g.neighbors(v)] == list(ref.adj[v].values())
        assert LabeledGraph(["C"] * 300, [(0, 299)])._csr.typecode == "H"
        assert LabeledGraph(["C"] * 3, [(0, 2)])._csr.typecode == "B"

    def test_vertices_outside_the_graph_raise(self):
        g = path_graph(["C", "N", "O"])
        for call in (g.neighbors, g.degree, lambda v: g.has_edge(v, 0)):
            for v in (-1, 3, 4):
                with pytest.raises(IndexError):
                    call(v)
