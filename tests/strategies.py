"""The suite's one graph strategy and one database strategy.

:func:`graph_specs` / :func:`graphs` draw labelled graphs for the metric
and structure tests.  :func:`databases` draws what every deployment shape
must answer identically over: dud-like molecules with the hostile classes
mixed in — hubs, a large label alphabet with several edge labels, empty,
single-vertex and edgeless graphs, exact duplicates, isomorphic
relabelings, a permuted id order and feature rows tied at the relevance
quantile.  Representation-independent search (Chodpathumwan et al.,
PAPERS.md) names the last three as the classes an answer must not
notice.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.datasets import dud_like
from repro.graphs import GraphDatabase, LabeledGraph

LABELS = ("C", "N", "O")
#: A large label alphabet: most vertices share no label with each other.
WIDE_LABELS = tuple(f"L{i}" for i in range(40))
#: Several edge labels; ``None`` is the default (unlabelled) edge.
EDGE_LABELS = (None, "-", "=", "#")
#: Feature values a tie at any quantile lands on.
GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def graph_specs(
    draw, nodes=st.integers(1, 5), labels=LABELS, edge_labels=(None,),
):
    """``(labels, edges)`` for a :class:`LabeledGraph`: ``nodes`` vertices,
    repeated labels, edges in random order and orientation, each edge
    labelled from ``edge_labels`` (``None`` leaves it unlabelled)."""
    n = draw(nodes)
    node_labels = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    edges, seen = [], set()
    if n >= 2:
        pairs = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=min(n * (n - 1) // 2, 400),
        ))
        for u, v in pairs:
            if u == v or (min(u, v), max(u, v)) in seen:
                continue
            seen.add((min(u, v), max(u, v)))
            label = draw(st.sampled_from(edge_labels))
            edges.append((u, v) if label is None else (u, v, label))
    return node_labels, edges


def graphs(**spec) -> st.SearchStrategy:
    """:class:`LabeledGraph` objects drawn from :func:`graph_specs`."""
    return graph_specs(**spec).map(lambda drawn: LabeledGraph(*drawn))


@st.composite
def hubs(draw):
    """One vertex joined to every other, at a test-sized degree."""
    n = draw(st.integers(4, 9))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    return LabeledGraph(labels, [(0, v) for v in range(1, n)])


#: The hostile graph classes a database mixes into its dud-like rows.
HOSTILE_GRAPHS = {
    "empty": st.just(LabeledGraph([])),
    "single": graphs(nodes=st.just(1)),
    "edgeless": st.builds(
        LabeledGraph, st.lists(st.sampled_from(LABELS), min_size=2, max_size=5)
    ),
    "hub": hubs(),
    "wide": graphs(
        nodes=st.integers(2, 7), labels=WIDE_LABELS, edge_labels=EDGE_LABELS,
    ),
}


def feature_rows(width: int) -> st.SearchStrategy:
    """One feature row on :data:`GRID`: ties at every quantile."""
    return st.lists(st.sampled_from(GRID), min_size=width, max_size=width)


def new_graphs(database: GraphDatabase) -> st.SearchStrategy:
    """A graph to insert into ``database``: a hostile one, a duplicate of a
    stored graph, or an isomorphic relabeling of one."""
    stored = st.sampled_from(list(database.graphs))
    return st.one_of(
        *HOSTILE_GRAPHS.values(),
        stored,
        stored.flatmap(lambda g: st.permutations(range(g.num_nodes)).map(
            g.permuted
        )),
    )


@st.composite
def databases(draw, max_dud=40, max_hostile=6):
    """A dud-like database (at least four graphs) with hostile rows mixed
    in and its ids permuted."""
    dud = dud_like(
        num_graphs=draw(st.integers(2, max_dud), label="dud graphs"),
        seed=draw(st.integers(0, 2**16), label="dud seed"),
    )
    members = list(dud.graphs)
    rows = [list(row) for row in dud.features]
    for _ in range(draw(st.integers(2, max_hostile), label="hostile graphs")):
        members.append(draw(new_graphs(GraphDatabase(members, rows))))
        if draw(st.booleans()):  # an exact copy of a stored row: a tie
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        else:
            rows.append(draw(feature_rows(dud.num_features)))
    features = np.asarray(rows, dtype=float)
    if draw(st.booleans(), label="features on the grid"):
        features = np.round(features * 4) / 4  # ties at every quantile
    order = draw(st.permutations(range(len(members))), label="id order")
    return GraphDatabase([members[i] for i in order], features[order])
