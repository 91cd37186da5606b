"""Hypothesis fuzzing of the full NB-Index pipeline on tiny databases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ged import StarDistance
from repro.graphs import GraphDatabase, quartile_relevance
from repro.index import NBIndex
from tests.conftest import random_connected_graph
from tests.test_nbindex import assert_valid_greedy_trajectory


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=1.0, max_value=15.0),
    st.integers(min_value=1, max_value=5),
)
def test_random_databases_yield_valid_trajectories(seed, theta, k):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(10, 30))
    graphs = [
        random_connected_graph(rng, int(rng.integers(2, 7)))
        for _ in range(size)
    ]
    db = GraphDatabase(graphs, rng.random((size, 2)))
    dist = StarDistance()
    q = quartile_relevance(db, quantile=0.25)
    index = NBIndex.build(
        db, dist, num_vantage_points=int(rng.integers(1, 6)), seed=seed,
    )
    # Any θ > 0 is answered, on or off the derived ladder.
    result = index.query(q, theta, k)
    assert_valid_greedy_trajectory(db, dist, q, theta, result)
    # Invariants that hold regardless of the draw:
    assert len(result.answer) == len(set(result.answer))
    assert len(result.answer) <= min(k, result.num_relevant)
    assert all(g >= 0 for g in result.gains)
