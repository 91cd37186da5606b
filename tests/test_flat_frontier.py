"""The flat frontier answers as the paper's greedy, at any θ > 0.

A round visits the relevant members in (−bound, gid) order of working
bounds that start at π̂ taken at θ itself, so nothing about the answer
depends on a stored threshold ladder (the index keeps none): any θ is
answered like any other.  Checked against ``baseline_greedy`` on ids,
gains, order and coverage for a plain index (S = 1), a four-shard bundle
and a mutable two-shard bundle with a memtable and a tombstone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import baseline_greedy, quartile_relevance
from repro.ged import StarDistance
from repro.index.nbindex import NBIndex
from repro.shard import ShardedIndex, build_shards
from tests.conftest import random_database

BUILD = dict(num_vantage_points=4)


@pytest.fixture(scope="module")
def flat_shapes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flat-shapes")
    database = random_database(seed=41, size=64)
    distance = StarDistance()
    manifests = {
        s: build_shards(
            database, distance, num_shards=s, out_dir=tmp / f"s{s}", seed=0,
            **BUILD,
        )
        for s in (2, 4)
    }
    mutable = repro.open_index(
        manifests[2], database.subset(range(len(database))), distance,
        shards=True, mutable=True,
    )
    donors = random_database(seed=42, size=5)
    for i in range(len(donors)):
        mutable.insert(donors[i], database.features[i])
    mutable.delete(9)
    yield {
        "S=1": NBIndex.build(database, distance, seed=0, **BUILD),
        "S=4": ShardedIndex.load(manifests[4], database, distance),
        "mutable S=2": mutable,
    }
    mutable.close()


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(min_value=0.5, max_value=14.0),
    quantile=st.sampled_from([0.1, 0.4, 0.7]),
    k=st.integers(1, 10),
)
def test_flat_frontier_equals_baseline_greedy_at_any_theta(
    flat_shapes, theta, quantile, k,
):
    for name, index in flat_shapes.items():
        database = index.database
        q = quartile_relevance(database, quantile=quantile)
        want = baseline_greedy(database, StarDistance(), q, theta, k)
        got = index.query(q, theta, k)
        assert got.answer == want.answer, (name, theta)
        assert got.gains == want.gains, (name, theta)
        assert got.covered == want.covered, (name, theta)


def test_a_round_stops_at_the_first_bound_below_the_incumbent(flat_shapes):
    """Pops never exceed the members a round could still visit: every
    round visits each live member at most once, plus the one pop that
    ends it."""
    index = flat_shapes["S=1"]
    q = quartile_relevance(index.database, quantile=0.4)
    result = index.query(q, 4.0, 5)
    rounds = len(result.answer)
    assert result.stats.leaves_evaluated >= rounds
    assert result.stats.nodes_popped <= rounds * (result.num_relevant + 1)
