"""The per-query optimality certificate (``docs/theory.md``, §8).

``QueryResult.opt_upper`` must bound the brute-force optimum from above
and ``certified_ratio`` must never print below 1 − (1 − 1/k)^k, on random
tiny instances where the optimum is computable.  Every answer carries
one: a query whose deadline runs out returns no answer at all.
"""

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import all_theta_neighborhoods, optimal_answer
from repro.core.results import QueryResult, certify
from repro.ged import StarDistance
from repro.graphs import quartile_relevance
from repro.index import NBIndex
from repro.resilience import BudgetExceeded, Deadline
from tests.conftest import random_database


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    size=st.integers(6, 16),
    theta=st.floats(min_value=0.5, max_value=12.0),
    k=st.integers(1, 5),
)
def test_certificate_bounds_the_brute_force_optimum(seed, size, theta, k):
    database = random_database(seed=seed, size=size, max_nodes=6)
    q = quartile_relevance(database, quantile=0.2)
    index = NBIndex.build(database, StarDistance(), num_vantage_points=3, seed=seed)
    result = index.query(q, theta, k)
    relevant = [int(g) for g in database.relevant_indices(q)]
    neighborhoods = all_theta_neighborhoods(
        database, StarDistance(), relevant, theta
    )
    _, optimum = optimal_answer(neighborhoods, relevant, k)
    assert len(result.covered) <= optimum <= result.opt_upper <= len(relevant)
    floor = 1.0 - (1.0 - 1.0 / k) ** k
    assert result.certified_ratio >= floor - 1e-12
    assert floor >= 1.0 - 1.0 / math.e
    assert result.certified_ratio == (
        len(result.covered) / result.opt_upper if result.opt_upper else 1.0
    )


def test_the_bound_is_the_greedy_online_bound():
    """U = min(|L_q|, min over i < k of C_i + k·g_{i+1}), g = 0 past a
    short answer."""
    result = certify(QueryResult(
        answer=[4, 7, 1], gains=[5, 3, 1], covered=frozenset(range(9)),
        num_relevant=20, theta=1.0,
    ), 4)
    # i = 0: 0 + 4·5 = 20; i = 1: 5 + 4·3 = 17; i = 2: 8 + 4·1 = 12;
    # i = 3: 9 + 4·0 = 9 (nothing left adds coverage).
    assert result.opt_upper == 9 and result.certified_ratio == 1.0
    capped = certify(QueryResult(
        answer=[2], gains=[3], covered=frozenset(range(3)),
        num_relevant=5, theta=1.0,
    ), 1)
    assert capped.opt_upper == 3  # 0 + 1·3, below |L_q| = 5


def test_a_deadline_certifies_or_cancels():
    database = random_database(seed=3, size=24, min_nodes=3, max_nodes=5)
    q = quartile_relevance(database, quantile=0.3)
    index = NBIndex.build(database, StarDistance(), num_vantage_points=3, seed=0)
    exact = index.query(q, 4.0, 3)
    assert exact.opt_upper is not None
    with_deadline = index.query(q, 4.0, 3, deadline=Deadline(3600.0))
    assert (with_deadline.opt_upper, with_deadline.certified_ratio) == (
        exact.opt_upper, exact.certified_ratio,
    )
    with pytest.raises(BudgetExceeded):
        index.query(q, 4.0, 3, deadline=Deadline(0.0))
