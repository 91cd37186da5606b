"""Micro-benchmarks of the hot operations (multi-round, statistical).

Unlike the experiment benchmarks (one-shot parameter sweeps), these measure
single operations with pytest-benchmark's full round machinery — the
numbers to watch when optimizing the inner loops.
"""

import numpy as np
import pytest

from repro.ged import ExactGED, StarDistance


@pytest.fixture(scope="module")
def pair(dud_ctx):
    return dud_ctx.database[0], dud_ctx.database[1]


def test_star_distance_call(benchmark, pair):
    # Fresh instance per round set-up would hide the profile cache that
    # real engines enjoy; measure the cached steady state explicitly.
    distance = StarDistance()
    distance(*pair)  # warm the per-graph profiles
    benchmark(distance, *pair)


def test_star_distance_cold_profiles(benchmark, pair):
    def cold():
        StarDistance()(*pair)

    benchmark(cold)


def test_exact_ged_small_graphs(benchmark):
    rng = np.random.default_rng(0)
    from tests.conftest import random_connected_graph

    a = random_connected_graph(rng, 5)
    b = random_connected_graph(rng, 5)
    benchmark(ExactGED(), a, b)


def test_vantage_candidates(benchmark, dud_ctx):
    embedding = dud_ctx.nbindex.embedding
    benchmark(embedding.candidates, 0, dud_ctx.theta)


def test_pi_hat_column(benchmark, dud_ctx):
    q = dud_ctx.relevance()
    state = dud_ctx.nbindex._tree_state(dud_ctx.nbindex.session(q))
    ladder_index = dud_ctx.nbindex.ladder.index_for(dud_ctx.theta)

    def compute():
        state._pi_hat_columns.clear()
        return state.pi_hat_column(ladder_index)

    benchmark(compute)


def test_full_query(benchmark, dud_ctx):
    q = dud_ctx.relevance()
    index = dud_ctx.nbindex
    benchmark(index.query, q, dud_ctx.theta, 10)
