"""Representation independence: answers do not depend on vertex numbering.

Every graph of a database is replaced by ``LabeledGraph.permuted`` under a
random vertex relabelling (graph ids and features unchanged).  The star
edit distance and exact GED are isomorphism-invariant, so every index
shape must return the same ids, gains, order and π over the relabelled
database as over the original one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import GENERATORS
from repro.ged import ExactGED, StarDistance
from repro.graphs import GraphDatabase, quartile_relevance
from repro.index import NBIndex
from repro.shard import ShardedIndex
from tests.conftest import random_connected_graph

BUILD = dict(num_vantage_points=6, seed=7)
QUERIES = ((6.0, 5), (10.0, 8), (12.0, 3))


def relabelled(database: GraphDatabase, seed: int) -> GraphDatabase:
    """The same database with every graph's vertices renumbered."""
    rng = np.random.default_rng(seed)
    graphs = [g.permuted(rng.permutation(g.num_nodes)) for g in database]
    return GraphDatabase(graphs, database.features)


@pytest.fixture(scope="module")
def databases():
    original = GENERATORS["dud"](num_graphs=60, seed=5)
    permuted = relabelled(original, seed=13)
    # The relabelling really moved vertices: structure differs as stored.
    assert sum(a != b for a, b in zip(original, permuted)) > 50
    return original, permuted


def _answers(index, database):
    out = []
    for dims in ([0], [1, 2]):
        q = quartile_relevance(database, dims=dims)
        for theta, k in QUERIES:
            result = index.query(q, theta, k)
            out.append((result.answer, result.gains, result.covered, result.pi))
    return out


def test_nbindex_answers_ignore_vertex_numbering(databases):
    original, permuted = databases
    want = _answers(NBIndex.build(original, StarDistance(), **BUILD), original)
    got = _answers(NBIndex.build(permuted, StarDistance(), **BUILD), permuted)
    assert got == want
    assert any(len(answer) > 1 for answer, *_ in want)


def test_sharded_answers_ignore_vertex_numbering(databases, tmp_path):
    original, permuted = databases
    single = _answers(NBIndex.build(original, StarDistance(), **BUILD), original)
    answers = []
    for name, database in (("original", original), ("permuted", permuted)):
        sharded = ShardedIndex.build(
            database, StarDistance(), num_shards=2, out_dir=tmp_path / name,
            **BUILD,
        )
        answers.append(_answers(sharded, database))
    assert answers[0] == answers[1] == single


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_distances_ignore_vertex_numbering(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(1, 6)))
    h = random_connected_graph(rng, int(rng.integers(1, 6)))
    gp = g.permuted(rng.permutation(g.num_nodes))
    hp = h.permuted(rng.permutation(h.num_nodes))
    star, exact = StarDistance(), ExactGED()
    assert star(g, h) == star(gp, hp) == star(gp, h)
    assert exact(g, h) == exact(gp, hp) == exact(g, hp)
