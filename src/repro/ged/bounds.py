"""Cheap lower bounds on graph edit distance.

These bounds cost O(|V| + |E|) per pair and are used to pre-filter pairs
before any expensive distance evaluation — by the C-tree-style baseline
index, by the exact A* search (as its admissible heuristic core), and as
sanity envelopes in tests.

All bounds assume the unit cost model; for custom constant costs they scale
by the minimum operation cost and remain valid (we keep the unit form here
since the paper's experiments use unit costs throughout).
"""

from __future__ import annotations

from repro.graphs.graph import LabeledGraph


def _histogram_matching_cost(hist_a: dict[str, int], hist_b: dict[str, int]) -> float:
    """Minimum unit cost of editing one label multiset into another.

    Matching equal labels is free, substituting a differing label costs 1,
    inserting/deleting costs 1, so the optimum is
    ``max(|A|, |B|) - |A ∩ B|`` (multiset intersection).
    """
    size_a = sum(hist_a.values())
    size_b = sum(hist_b.values())
    common = sum(min(count, hist_b.get(label, 0)) for label, count in hist_a.items())
    return float(max(size_a, size_b) - common)


def label_lower_bound(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Node-label multiset bound: any edit path must pay at least the cost
    of reconciling the node label multisets."""
    return _histogram_matching_cost(g1.label_histogram(), g2.label_histogram())


def edge_count_lower_bound(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Edge-count bound: each edge insertion/deletion costs 1, so any edit
    path pays at least ``| |E1| - |E2| |``."""
    return float(abs(g1.num_edges - g2.num_edges))


def size_lower_bound(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Combined structural bound: node-label reconciliation plus the edge
    count difference.  Valid because node operations and edge
    insert/delete operations are disjoint cost pools."""
    return label_lower_bound(g1, g2) + edge_count_lower_bound(g1, g2)


def degree_lower_bound(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Half the L1 gap between descending zero-padded degree sequences:
    one edge edit moves two degrees by one each, and sorted-order matching
    minimizes the L1 sum over all node assignments."""
    deg_1 = sorted((g1.degree(v) for v in g1.nodes()), reverse=True)
    deg_2 = sorted((g2.degree(v) for v in g2.nodes()), reverse=True)
    width = max(len(deg_1), len(deg_2))
    deg_1 += [0] * (width - len(deg_1))
    deg_2 += [0] * (width - len(deg_2))
    return 0.5 * sum(abs(a - b) for a, b in zip(deg_1, deg_2))


def assignment_lower_bound(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """EmbAssi-style linear assignment bound: node-label reconciliation
    plus the degree-sequence term.  The two charge disjoint cost pools
    (node operations, edge operations) of exact GED and of the
    unnormalized star metric.  Its vectorized form over an engine's graph
    list is :class:`repro.cascade.features.StageFeatures`."""
    return label_lower_bound(g1, g2) + degree_lower_bound(g1, g2)


def trivial_upper_bound(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Delete everything, insert everything — always a valid edit path."""
    return float(
        g1.num_nodes + g1.num_edges + g2.num_nodes + g2.num_edges
    )
