"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.graphs import GraphDatabase, LabeledGraph, quartile_relevance
from repro.ged import StarDistance
from repro.index.pivec import choose_thresholds

LABELS = ("C", "N", "O", "S")

#: ``pytest tests/test_oracle.py --hypothesis-profile=deep``: the
#: differential oracle's long search (tier-1 runs its small default).
settings.register_profile(
    "deep", max_examples=250, stateful_step_count=30, deadline=None
)


def random_connected_graph(rng, num_nodes: int, extra_edge_prob: float = 0.3) -> LabeledGraph:
    """A random connected labelled graph: spanning tree plus extras."""
    labels = [LABELS[int(rng.integers(len(LABELS)))] for _ in range(num_nodes)]
    edges = []
    for i in range(1, num_nodes):
        edges.append((i, int(rng.integers(i))))
    existing = set((min(u, v), max(u, v)) for u, v in edges)
    attempts = int(extra_edge_prob * num_nodes) + 1
    for _ in range(attempts):
        u = int(rng.integers(num_nodes))
        v = int(rng.integers(num_nodes))
        if u != v and (min(u, v), max(u, v)) not in existing:
            edges.append((u, v))
            existing.add((min(u, v), max(u, v)))
    return LabeledGraph(labels, edges)


def random_database(
    seed: int = 0,
    size: int = 60,
    min_nodes: int = 3,
    max_nodes: int = 8,
    num_features: int = 2,
) -> GraphDatabase:
    """A deterministic random database for cross-engine comparisons."""
    rng = np.random.default_rng(seed)
    graphs = [
        random_connected_graph(rng, int(rng.integers(min_nodes, max_nodes + 1)))
        for _ in range(size)
    ]
    return GraphDatabase(graphs, rng.random((size, num_features)))


def rungs(graphs, distance, seed=0):
    """Ten θ values to query at: a slope-proportional spread of sampled
    pairwise distances of ``graphs`` (Sec. 7.1's threshold placement)."""
    return choose_thresholds(
        graphs, distance, num_pairs=min(1000, 4 * len(graphs)), rng=seed
    )


@pytest.fixture
def small_db() -> GraphDatabase:
    return random_database(seed=11, size=40)


@pytest.fixture
def medium_db() -> GraphDatabase:
    return random_database(seed=12, size=90)


@pytest.fixture
def star_distance() -> StarDistance:
    return StarDistance()


@pytest.fixture
def relevance(small_db):
    # Low quantile so most graphs are relevant: denser neighborhoods make
    # greedy trajectories non-trivial.
    return quartile_relevance(small_db, quantile=0.3)
