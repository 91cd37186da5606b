"""Cross-validation of the exact GED solver against networkx.

``networkx.graph_edit_distance`` is an independent exact implementation;
agreeing with it on random labelled graphs under the same unit cost model
rules out whole classes of bugs in our A* (edge accounting, heuristic
admissibility, completion costs).
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ged import ExactGED
from repro.graphs import LabeledGraph
from tests.conftest import random_connected_graph
from tests.strategies import graphs

_TINY = graphs(
    nodes=st.integers(1, 4), labels=("C", "N"), edge_labels=("-", "=")
)

ged = ExactGED()


def networkx_ged(a: LabeledGraph, b: LabeledGraph) -> float:
    return nx.graph_edit_distance(
        a.to_networkx(),
        b.to_networkx(),
        node_subst_cost=lambda x, y: 0.0 if x["label"] == y["label"] else 1.0,
        node_del_cost=lambda x: 1.0,
        node_ins_cost=lambda x: 1.0,
        edge_subst_cost=lambda x, y: 0.0 if x["label"] == y["label"] else 1.0,
        edge_del_cost=lambda x: 1.0,
        edge_ins_cost=lambda x: 1.0,
    )


@pytest.mark.parametrize("seed", range(8))
def test_matches_networkx_on_random_connected_graphs(seed):
    rng = np.random.default_rng(seed)
    a = random_connected_graph(rng, int(rng.integers(2, 6)))
    b = random_connected_graph(rng, int(rng.integers(2, 6)))
    assert ged(a, b) == pytest.approx(networkx_ged(a, b))


@settings(max_examples=25, deadline=None)
@given(_TINY, _TINY)
def test_property_matches_networkx(a, b):
    assert ged(a, b) == pytest.approx(networkx_ged(a, b))
