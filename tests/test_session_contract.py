"""One session, one index frontier: the query-path contract.

Every index type hands out the same :class:`QuerySession`; what differs is
the hook that opens its frontiers.  This file pins what that buys:

* the (θ, k) contract — validation, any θ > 0 answered, unknown kwargs,
  deadline cancellation, ε flags — once, over every deployment shape;
* a plain ``NBIndex`` is the S = 1 case of the coordinated greedy: same
  answers *and* same exact work as a one-shard ``ShardedIndex``;
* a session builds its per-index state once, however often it is
  refined;
* the three ``Frontier`` implementations speak one protocol.
"""

from __future__ import annotations

import uuid

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from tests.conftest import random_database, rungs
from tests.coordinated import CoordinatedBundle
from repro.bitset import BitsetUniverse, kernel as bitset_kernel
from repro.cascade import FilterCascade
from repro.core.results import QueryStats
from repro.delta.frontier import ExactFrontier
from repro.ged import ExactGED, StarDistance
from repro.graphs import quartile_relevance
from repro.index import frontier as frontier_module
from repro.index import save_index
from repro.index.frontier import Frontier, MemberState, RoundCursor
from repro.index.nbindex import NBIndex, QuerySession
from repro.replica import ReplicatedIndex
from repro.replica.remote import RemoteFrontier
from repro.resilience import BudgetExceeded, Deadline
from repro.shard import ShardedIndex, build_shards
from repro.shard.frontier import ShardFrontier
from repro.shard.manifest import ShardEntry, ShardManifest, database_checksum

BUILD = dict(num_vantage_points=4)
SHAPES = ("nbindex", "sharded-1", "sharded-4", "mutable", "replicated-2x2")


# ---------------------------------------------------------------------------
# The (θ, k) contract, once, over every deployment shape
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_db():
    # Small graphs under exact GED.
    return random_database(seed=3, size=24, min_nodes=3, max_nodes=5)


@pytest.fixture(scope="module")
def shapes(tiny_db, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("session-contract")
    distance = ExactGED()
    single = NBIndex.build(tiny_db, distance, seed=0, **BUILD)
    save_index(single, tmp / "index.npz")
    manifests = {
        s: build_shards(
            tiny_db, distance, num_shards=s, out_dir=tmp / f"s{s}", seed=0,
            **BUILD,
        )
        for s in (1, 2, 4)
    }
    # The mutable shape grows its database in place: give it its own copy.
    mutable_db = tiny_db.subset(range(len(tiny_db)))
    mutable = repro.open_index(
        tmp / "index.npz", mutable_db, distance, mutable=True
    )
    donors = random_database(seed=4, size=2, min_nodes=3, max_nodes=5)
    for i in range(len(donors)):
        mutable.insert(donors[i], tiny_db.features[i])
    built = {
        "nbindex": single,
        "sharded-1": ShardedIndex.load(manifests[1], tiny_db, distance),
        "sharded-4": ShardedIndex.load(manifests[4], tiny_db, distance),
        "mutable": mutable,
        "replicated-2x2": ReplicatedIndex.open(
            manifests[2], tiny_db, distance, replicas=2
        ),
    }
    yield built
    mutable.close()
    built["replicated-2x2"].close()


def _engines(index):
    """Every in-process engine behind ``index`` (workers hold their own)."""
    found = [getattr(index, "engine", None)]
    if getattr(index, "base", None) is not None:
        found += _engines(index.base)
    for shard in getattr(index, "shards", ()):
        found += _engines(shard)
    return [engine for engine in found if engine is not None]


@pytest.mark.parametrize("shape", SHAPES)
class TestSessionContract:
    def test_every_shape_hands_out_the_one_session_class(self, shapes, shape):
        index = shapes[shape]
        if shape != "mutable":  # queries hold its read latch: no sessions
            session = index.session(quartile_relevance(index.database))
            assert isinstance(session, QuerySession)
            assert session.index is index

    def test_nonpositive_theta_or_k_is_rejected(self, shapes, shape):
        index = shapes[shape]
        q = quartile_relevance(index.database, quantile=0.3)
        for theta, k in ((0.0, 3), (-1.0, 3), (4.0, 0), (4.0, -2)):
            with pytest.raises(ValueError):
                index.query(q, theta, k)

    def test_off_ladder_theta_is_answered(self, shapes, shape):
        """θ far above every distance: the first pick covers all of L_q, and
        every shape picks the smallest relevant id for it."""
        index = shapes[shape]
        q = quartile_relevance(index.database, quantile=0.3)
        relevant = index.database.relevant_indices(q)
        result = index.query(q, 1e6, 3)
        assert result.answer[0] == int(relevant[0])
        assert result.gains == [relevant.size, 0, 0]
        assert result.pi == 1.0
        assert result.opt_upper == relevant.size

    def test_unknown_kwarg_names_the_index_class(self, shapes, shape):
        index = shapes[shape]
        q = quartile_relevance(index.database, quantile=0.3)
        # ``enable_updates`` is not a query keyword: there is no update step.
        for keyword in ("explode", "enable_updates"):
            with pytest.raises(TypeError, match="unexpected keyword") as excinfo:
                index.query(q, 4.0, 3, **{keyword: True})
            assert type(index).__name__ in str(excinfo.value)
            assert keyword in str(excinfo.value)

    def test_an_expired_deadline_cancels_with_the_same_type(
        self, shapes, shape,
    ):
        """Every shape raises ``BudgetExceeded`` — a replicated one too,
        without a failover — and answers the next query as before."""
        index = shapes[shape]
        q = quartile_relevance(index.database, quantile=0.05)
        want = index.query(q, 7.0, 5)
        for engine in _engines(index):
            engine._cache.clear()
        with obs.observe() as observation:
            with pytest.raises(BudgetExceeded):
                index.query(q, 7.0, 5, deadline=Deadline(0.0))
            counters = observation.stats()["counters"]
        assert "replica.failovers" not in counters
        got = index.query(q, 7.0, 5)
        assert (got.answer, got.gains, got.opt_upper) == (
            want.answer, want.gains, want.opt_upper,
        )


# ---------------------------------------------------------------------------
# A bundle is one NBIndex over its frame: same answers, same exact work
# ---------------------------------------------------------------------------
def _one_shard(index: NBIndex) -> ShardedIndex:
    """``index``'s coordinates as the frame of a one-shard bundle."""
    database = index.database
    manifest = ShardManifest(
        num_shards=1, num_graphs=len(database), partitioner="hash", seed=0,
        assignments=np.zeros(len(database), dtype=np.int64),
        database_checksum=database_checksum(database),
        shards=(ShardEntry(0, "unused.npz", 0, len(database)),),
        frame=tuple(index.embedding.vantage_indices),
    )
    return ShardedIndex(
        database, StarDistance(), manifest=manifest, frame=index.embedding,
    )


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_nbindex_and_one_shard_bundle_do_identical_work(data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    size = data.draw(st.integers(12, 48), label="size")
    database = random_database(seed=seed, size=size)
    plain = NBIndex.build(
        database, StarDistance(), num_vantage_points=4, seed=seed,
    )
    bundle = _one_shard(plain)
    q = quartile_relevance(
        database, quantile=data.draw(st.sampled_from([0.2, 0.5, 0.8]))
    )
    thetas = rungs(database.graphs, StarDistance(), seed=seed)
    rung = data.draw(st.integers(0, len(thetas) - 1), label="rung")
    theta = thetas[rung] * data.draw(st.sampled_from([0.7, 1.0]))
    k = data.draw(st.integers(1, 8), label="k")
    plain.engine._cache.clear()  # cold: only the query's own distances
    plain.engine.reset()

    want = plain.query(q, theta, k)
    got = bundle.query(q, theta, k)
    assert got.answer == want.answer
    assert got.gains == want.gains
    assert got.covered == want.covered
    for field in (
        "exact_neighborhoods", "candidate_verifications",
        "candidates_generated", "nodes_popped", "leaves_evaluated",
        "partial_neighborhoods", "verifications_skipped", "distance_calls",
    ):
        assert getattr(got.stats, field) == getattr(want.stats, field), field
    assert want.stats.distance_calls == plain.engine.evaluations
    assert got.stats.distance_calls == bundle.engine.evaluations


# ---------------------------------------------------------------------------
# Per-index state is built once per session
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", [None, 4])
def test_session_builds_member_state_once(monkeypatch, tmp_path, num_shards):
    database = random_database(seed=21, size=48)
    build = dict(num_vantage_points=4, seed=0)
    if num_shards is None:
        index = NBIndex.build(database, StarDistance(), **build)
    else:
        index = ShardedIndex.build(
            database, StarDistance(), num_shards=num_shards, out_dir=tmp_path,
            **build,
        )
    built = []
    original = MemberState.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(frontier_module.MemberState, "__init__", counting)
    q = quartile_relevance(database, quantile=0.3)
    session = index.session(q)
    assert not built  # lazily: nothing until the first query
    for theta, k in ((4.0, 3), (8.0, 5), (2.0, 2)):
        reused = session.query(theta, k)
        fresh = index.query(q, theta, k)
        assert reused.answer == fresh.answer and reused.gains == fresh.gains
    # One index whatever S is on disk: one state for the session, one per
    # one-shot query.
    assert len(built) == 1 + 3


# ---------------------------------------------------------------------------
# Frontier protocol conformance
# ---------------------------------------------------------------------------
def _protocol_members(protocol) -> set[str]:
    return {
        name for name in (*vars(protocol), *protocol.__annotations__)
        if not name.startswith("_")
    }


def _assert_nothing_is_foreign(frontier, relevant, gid) -> None:
    """A replica's frontier holds every relevant graph; its foreign tiers
    are trace-only names that refuse to run (the worker has no such op)."""
    assert np.array_equal(frontier.relevant_global, relevant)
    with pytest.raises(NotImplementedError):
        frontier.pi_hat_uncovered(gid)
    with pytest.raises(NotImplementedError):
        frontier.neighborhood_of(gid)


class TestFrontierProtocol:
    THETA = 4.0

    @pytest.fixture(scope="class")
    def setting(self, tmp_path_factory):
        database = random_database(seed=33, size=36)
        manifest = build_shards(
            database, StarDistance(), num_shards=2,
            out_dir=tmp_path_factory.mktemp("frontier-protocol"), seed=0,
            **BUILD,
        )
        bundle = CoordinatedBundle.load(manifest, database, StarDistance())
        q = quartile_relevance(database, quantile=0.3)
        relevant = database.relevant_indices(q)
        universe = BitsetUniverse(relevant)
        cluster = ReplicatedIndex.open(
            manifest, database, StarDistance(), replicas=1
        )
        yield database, bundle, q, relevant, universe, cluster
        cluster.close()

    @pytest.fixture(params=["shard", "exact", "remote"])
    def frontier(self, request, setting):
        database, bundle, q, relevant, universe, cluster = setting
        if request.param == "shard":
            yield ShardFrontier(
                MemberState(
                    bundle.index, np.intersect1d(relevant, bundle.members[0]),
                    universe,
                ),
                self.THETA, QueryStats(), FilterCascade(),
                global_engine=bundle.engine,
            )
            return
        members = relevant[bundle.shard_of[relevant] == 0]
        if request.param == "exact":
            yield ExactFrontier(
                members, universe, bundle.engine, self.THETA, QueryStats(),
                FilterCascade(),
            )
            return
        # A replica worker serves the whole bundle: its frontier holds
        # every relevant graph, and nothing is foreign to it.
        sid = uuid.uuid4().hex[:16]
        handle = cluster.router.pin(sid)
        yield RemoteFrontier(
            cluster.router, handle, sid, dims=q.dims,
            threshold=q.threshold, theta=self.THETA, relevant_global=relevant,
            universe=universe,
        )
        cluster.router.close_session(handle, sid)  # frees its session slot

    def test_has_every_protocol_member(self, frontier, setting):
        universe = setting[4]
        frontier.begin_round(universe.empty())
        for name in _protocol_members(Frontier):
            assert hasattr(frontier, name), name
        cursor = frontier.open_round(universe.empty())
        for name in _protocol_members(RoundCursor):
            assert callable(getattr(cursor, name)), name

    def test_round_lifecycle(self, frontier, setting):
        database, _, q, relevant, universe, _ = setting
        members = {int(g) for g in frontier.relevant_global}
        covered = universe.empty()
        frontier.begin_round(covered)
        assert frontier.uncovered_count == len(members)
        assert frontier.min_gid_bound() <= min(members)
        cursor = frontier.open_round(covered)
        assert cursor.peek() <= frontier.root_bound()
        gid, gain, nbhd = cursor.next(float("-inf"), None)
        assert gid in members
        # Exact local gain, and the neighborhood stays inside the members.
        assert gain == bitset_kernel.popcount(nbhd) <= frontier.root_bound()
        assert set(universe.decode_ids(nbhd)) <= members
        star = StarDistance()
        assert set(universe.decode_ids(nbhd)) == {
            m for m in members
            if star(database[gid], database[m]) <= self.THETA + 1e-9
        }
        assert frontier.foreign_embeds >= 0
        if isinstance(frontier, RemoteFrontier):
            _assert_nothing_is_foreign(frontier, relevant, gid)
        else:
            assert np.array_equal(frontier.neighborhood_of(gid), nbhd)
            # A foreign graph resolves against the same members; the
            # count-only tier never undercuts the exact answer.
            foreign = next(int(g) for g in relevant if int(g) not in members)
            exact = bitset_kernel.popcount(frontier.neighborhood_of(foreign))
            assert frontier.pi_hat_uncovered(foreign) >= exact
        # Selecting retires the member: the next round never re-offers it.
        frontier.select(gid)
        bitset_kernel.union_into(covered, nbhd)
        frontier.begin_round(covered)
        assert frontier.uncovered_count == len(members) - int(gain)
        cursor = frontier.open_round(covered)
        offered = []
        done = set(universe.decode_ids(covered))
        while (candidate := cursor.next(float("-inf"), None)) is not None:
            offered.append(candidate[0])
            # Neighborhoods may be residual — covered members left out —
            # but never wrong about what is still uncovered.
            other, other_gain, other_nbhd = candidate
            assert other_gain == bitset_kernel.uncovered_count(
                other_nbhd, covered
            )
            assert set(universe.decode_ids(other_nbhd)) - done == {
                m for m in members - done
                if star(database[other], database[m]) <= self.THETA + 1e-9
            }
        assert gid not in offered and set(offered) == members - {gid}

    def test_resolution_under_a_deficit(self, frontier, setting):
        """Asked for more than a stranger can possibly add, a frontier may
        answer with the bound that proves it — an int, never below the
        truth — instead of the neighborhood; asked again without a
        deficit, it resolves the same window to completion."""
        database, _, q, relevant, universe, _ = setting
        if isinstance(frontier, RemoteFrontier):
            _assert_nothing_is_foreign(frontier, relevant, int(relevant[0]))
            return
        members = {int(g) for g in frontier.relevant_global}
        foreign = next(int(g) for g in relevant if int(g) not in members)
        star = StarDistance()
        truth = {
            m for m in members
            if star(database[foreign], database[m]) <= self.THETA + 1e-9
        }
        frontier.begin_round(universe.empty())
        opened = frontier.pi_hat_uncovered(foreign)
        assert opened >= len(truth)
        part = frontier.neighborhood_of(foreign, float(len(members) + 1), None)
        if isinstance(part, np.ndarray):
            assert set(universe.decode_ids(part)) == truth
        else:
            assert isinstance(part, int) and len(truth) <= part <= opened
            assert frontier.pi_hat_uncovered(foreign) == part
        whole = frontier.neighborhood_of(foreign)
        assert set(universe.decode_ids(whole)) == truth
        assert frontier.pi_hat_uncovered(foreign) == len(truth)
