"""One session, one tree frontier: the query-path contract.

Every index type hands out the same :class:`QuerySession`; what differs is
the hook that opens its frontiers.  This file pins what that buys:

* the (θ, k) contract — validation, off-ladder refusal, unknown kwargs,
  deadline degradation, ε flags — once, over every deployment shape;
* a plain ``NBIndex`` is the S = 1 case of the coordinated greedy: same
  answers *and* same exact work as a one-shard ``ShardedIndex``;
* a session builds its per-tree state once, however often it is refined;
* the three ``Frontier`` implementations speak one protocol.
"""

from __future__ import annotations

import uuid

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from tests.conftest import random_database
from repro.bitset import BitsetDelta, BitsetUniverse, kernel as bitset_kernel
from repro.cascade import FilterCascade
from repro.core.results import QueryStats
from repro.delta.frontier import ExactFrontier
from repro.ged import ExactGED, StarDistance
from repro.graphs import quartile_relevance
from repro.index import frontier as frontier_module
from repro.index import save_index
from repro.index.errors import OffLadderThetaError
from repro.index.frontier import Frontier, RoundCursor, TreeState
from repro.index.nbindex import NBIndex, QuerySession
from repro.index.pivec import ThresholdLadder
from repro.index.vantage import VantageFrame
from repro.replica import ReplicatedIndex
from repro.replica.remote import RemoteFrontier
from repro.resilience import Deadline
from repro.shard import ShardedIndex, build_shards
from repro.shard.frontier import ShardFrontier
from repro.shard.manifest import ShardEntry, ShardManifest, database_checksum

LADDER = ThresholdLadder([2.0, 4.0, 8.0])
BUILD = dict(num_vantage_points=4, branching=4, thresholds=LADDER)
SHAPES = ("nbindex", "sharded-1", "sharded-4", "mutable", "replicated-2x2")


# ---------------------------------------------------------------------------
# The (θ, k) contract, once, over every deployment shape
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_db():
    # Small graphs under exact GED: a one-expansion budget degrades.
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

    def test_off_ladder_theta_typed_and_counted(self, shapes, shape):
        index = shapes[shape]
        q = quartile_relevance(index.database, quantile=0.3)
        with repro.observe() as run:
            with pytest.raises(OffLadderThetaError) as excinfo:
                index.query(q, 1e6, 3)
        assert excinfo.value.theta == 1e6
        assert excinfo.value.ladder_max == LADDER.values[-1]
        assert run.stats()["counters"]["index.offladder_theta"] == 1

    def test_unknown_kwarg_names_the_index_class(self, shapes, shape):
        index = shapes[shape]
        q = quartile_relevance(index.database, quantile=0.3)
        with pytest.raises(TypeError, match="unexpected keyword") as excinfo:
            index.query(q, 4.0, 3, explode=True)
        assert type(index).__name__ in str(excinfo.value)
        assert "explode" in str(excinfo.value)

    def test_deadline_degradation_is_flagged_with_the_same_keys(
        self, shapes, shape,
    ):
        index = shapes[shape]
        for engine in _engines(index):
            engine._cache.clear()
        # Replica workers keep their own caches: a wider relevant set and θ
        # than any other test here asks for pairs they have not seen.
        q = quartile_relevance(index.database, quantile=0.05)
        deadline = Deadline(3600.0, expansion_limit=1)
        result = index.query(q, 8.0, 5, deadline=deadline)
        stats = result.stats
        assert result.answer
        assert stats.degraded and deadline.degraded
        assert stats.degradations.get("ged.exact.beam", 0) >= 1
        assert set(stats.degradations) <= {
            "ged.exact.beam", "ged.exact.bipartite",
        }
        assert stats.degradation_events == sum(stats.degradations.values())

    def test_epsilon_flags_the_answer_approximate(self, shapes, shape):
        index = shapes[shape]
        q = quartile_relevance(index.database, quantile=0.3)
        exact = index.query(q, 4.0, 3).stats
        assert exact.epsilon == 0.0 and not exact.approximate
        relaxed = index.query(q, 4.0, 3, epsilon=0.1).stats
        assert relaxed.epsilon == 0.1 and relaxed.approximate


# ---------------------------------------------------------------------------
# NBIndex is the S = 1 case: same answers, same exact work
# ---------------------------------------------------------------------------
def _one_shard(index: NBIndex) -> ShardedIndex:
    """``index`` as the only shard of a bundle.  At S = 1 local and global
    ids coincide, so the bundle can route its global distances through the
    shard's own engine — one pair cache, as in the plain index."""
    database = index.database
    manifest = ShardManifest(
        num_shards=1, num_graphs=len(database), partitioner="hash", seed=0,
        ladder=tuple(index.ladder.values),
        assignments=np.zeros(len(database), dtype=np.int64),
        database_checksum=database_checksum(database),
        shards=(ShardEntry(0, "unused.npz", 0, len(database)),),
        frame=tuple(index.embedding.vantage_indices),
    )
    embedding = index.embedding
    return ShardedIndex(
        database, StarDistance(), shards=[index], manifest=manifest,
        frame=VantageFrame(embedding.vantage_indices, embedding.coords),
        engine=index.engine,
    )


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_nbindex_and_one_shard_bundle_do_identical_work(data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    size = data.draw(st.integers(12, 48), label="size")
    database = random_database(seed=seed, size=size)

    def build():
        return NBIndex.build(
            database, StarDistance(), num_vantage_points=4, branching=3,
            seed=seed,
        )

    plain, shard = build(), build()
    bundle = _one_shard(shard)
    q = quartile_relevance(
        database, quantile=data.draw(st.sampled_from([0.2, 0.5, 0.8]))
    )
    rung = data.draw(st.integers(0, len(plain.ladder) - 1), label="rung")
    theta = float(plain.ladder[rung]) * data.draw(st.sampled_from([0.7, 1.0]))
    k = data.draw(st.integers(1, 8), label="k")
    for index in (plain, shard):  # cold: only the query's own distances
        index.engine._cache.clear()
        index.engine.reset()

    want = plain.query(q, theta, k)
    got = bundle.query(q, theta, k)
    assert got.answer == want.answer
    assert got.gains == want.gains
    assert got.covered == want.covered
    for field in (
        "exact_neighborhoods", "candidate_verifications",
        "candidates_generated", "nodes_popped", "leaves_evaluated",
        "pruned_subtrees", "batch_decrements", "partial_neighborhoods",
        "verifications_skipped",
    ):
        assert getattr(got.stats, field) == getattr(want.stats, field), field
    assert want.stats.distance_calls == plain.engine.evaluations
    # The bundle's roll-up adds its global engine to its shards'; here they
    # are one engine, so read the engine itself.
    assert shard.engine.evaluations == want.stats.distance_calls
    assert got.stats.distance_calls == 2 * shard.engine.evaluations


# ---------------------------------------------------------------------------
# Per-tree state is built once per session
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", [None, 4])
def test_session_builds_tree_state_once(monkeypatch, tmp_path, num_shards):
    database = random_database(seed=21, size=48)
    build = dict(num_vantage_points=4, branching=4, thresholds=LADDER, seed=0)
    if num_shards is None:
        index = NBIndex.build(database, StarDistance(), **build)
    else:
        index = ShardedIndex.build(
            database, StarDistance(), num_shards=num_shards, out_dir=tmp_path,
            **build,
        )
    built = []
    original = TreeState.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(frontier_module.TreeState, "__init__", counting)
    q = quartile_relevance(database, quantile=0.3)
    session = index.session(q)
    assert not built  # lazily: nothing until the first query
    for theta, k in ((4.0, 3), (8.0, 5), (2.0, 2)):
        reused = session.query(theta, k)
        fresh = index.query(q, theta, k)
        assert reused.answer == fresh.answer and reused.gains == fresh.gains
    trees = num_shards or 1
    # one per tree for the session + one per tree per one-shot query
    assert len(built) == trees + 3 * trees
    assert len({id(state) for state in built[:trees]}) == trees


# ---------------------------------------------------------------------------
# Frontier protocol conformance
# ---------------------------------------------------------------------------
def _protocol_members(protocol) -> set[str]:
    return {
        name for name in (*vars(protocol), *protocol.__annotations__)
        if not name.startswith("_")
    }


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
        sharded = ShardedIndex.load(manifest, database, StarDistance())
        q = quartile_relevance(database, quantile=0.3)
        relevant = database.relevant_indices(q)
        universe = BitsetUniverse(relevant)
        cluster = ReplicatedIndex.open(
            manifest, database, StarDistance(), replicas=1
        )
        yield database, sharded, q, relevant, universe, cluster
        cluster.close()

    @pytest.fixture(params=["shard", "exact", "remote"])
    def frontier(self, request, setting):
        database, sharded, q, relevant, universe, cluster = setting
        ladder_index = sharded.ladder.index_for(self.THETA)
        if request.param == "shard":
            return ShardFrontier(
                TreeState(
                    sharded.shards[0], sharded.global_ids[0], relevant,
                    universe,
                ),
                self.THETA, ladder_index, QueryStats(), FilterCascade(),
                global_engine=sharded.engine, frame=sharded.frame,
            )
        members = relevant[sharded.shard_of[relevant] == 0]
        if request.param == "exact":
            return ExactFrontier(
                members, universe, sharded.engine, self.THETA, QueryStats(),
                FilterCascade(),
            )
        return RemoteFrontier(
            cluster.router, 0, uuid.uuid4().hex[:16], dims=q.dims,
            threshold=q.threshold, theta=self.THETA, relevant_global=members,
            universe=universe,
        )

    def test_has_every_protocol_member(self, frontier, setting):
        universe = setting[4]
        frontier.begin_round(universe.empty())
        for name in _protocol_members(Frontier):
            assert hasattr(frontier, name), name
        cursor = frontier.open_round(universe.empty())
        for name in _protocol_members(RoundCursor):
            assert callable(getattr(cursor, name)), name

    def test_round_lifecycle(self, frontier, setting):
        database, sharded, q, relevant, universe, _ = setting
        members = {int(g) for g in frontier.relevant_global}
        foreign = next(int(g) for g in relevant if int(g) not in members)
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
        assert np.array_equal(frontier.neighborhood_of(gid), nbhd)
        star = StarDistance()
        assert set(universe.decode_ids(nbhd)) == {
            m for m in members
            if star(database[gid], database[m]) <= self.THETA + 1e-9
        }
        # A foreign graph resolves against the same members; the count-only
        # tier never undercuts the exact answer.
        exact = bitset_kernel.popcount(frontier.neighborhood_of(foreign))
        assert frontier.pi_hat_uncovered(foreign) >= exact
        assert frontier.foreign_embeds >= 0
        # Selecting retires the member: the next round never re-offers it.
        frontier.select(gid)
        delta = BitsetDelta.from_words(nbhd, universe.size)
        bitset_kernel.union_into(covered, nbhd)
        frontier.apply_update(gid, delta, covered)
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
        database, sharded, q, relevant, universe, _ = setting
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
