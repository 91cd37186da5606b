"""A round of the flat frontier stops at the first bound below the
incumbent.

A round visits the relevant members in (−bound, gid) order of working
bounds that start at π̂ taken at θ itself, so nothing about the answer
depends on a stored threshold ladder (the index keeps none).  That any
θ > 0 is answered as the paper's greedy answers it, on every deployment
shape, is ``tests/test_oracle.py``'s to check.
"""

from __future__ import annotations

from repro import quartile_relevance
from repro.ged import StarDistance
from repro.index.nbindex import NBIndex
from tests.conftest import random_database


def test_a_round_stops_at_the_first_bound_below_the_incumbent():
    """Pops never exceed the members a round could still visit: every
    round visits each live member at most once, plus the one pop that
    ends it."""
    database = random_database(seed=41, size=64)
    index = NBIndex.build(
        database, StarDistance(), seed=0, num_vantage_points=4
    )
    q = quartile_relevance(index.database, quantile=0.4)
    result = index.query(q, 4.0, 5)
    rounds = len(result.answer)
    assert result.stats.leaves_evaluated >= rounds
    assert result.stats.nodes_popped <= rounds * (result.num_relevant + 1)
