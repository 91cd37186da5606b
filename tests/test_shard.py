"""Tests for the sharded NB-Index (repro.shard).

The load-bearing property is *bit-identity*: for any shard count and any
partitioner, the scatter-gather coordinator returns exactly the answer
(ids, gains, ordering, coverage) of the single-index engine — which is
itself exactly ``baseline_greedy``.  Everything else — partitioners,
manifest persistence, corruption detection, per-shard hot-reload reuse,
service integration, deadline degradation — is tested around that core.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib

import numpy as np
import pytest

import repro
from repro import obs
from repro.core import baseline_greedy
from repro.engine import DistanceEngine
from repro.ged import ExactGED, StarDistance
from repro.graphs import GraphDatabase, LabeledGraph, quartile_relevance
from repro.index import NBIndex, OffLadderThetaError, save_index
from repro.index.persistence import load_index
from repro.index.pivec import ThresholdLadder
from repro.resilience import Deadline
from repro.resilience.errors import (
    CorruptIndexError,
    DatabaseMismatchError,
    PersistenceError,
)
from repro.service import QueryRequest, QueryService, ServiceConfig
from repro.service.reload import IndexManager
from repro.shard import (
    ClusteringPartitioner,
    HashPartitioner,
    ManifestError,
    PartitionError,
    ShardedIndex,
    ShardManifest,
    build_shards,
    get_partitioner,
)
from tests.conftest import random_database, random_connected_graph

#: Shared build shape: small trees, explicit ladder so every test theta is
#: on-rung for both the single index and every shard bundle.
LADDER = ThresholdLadder([2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 40.0])
BUILD = dict(num_vantage_points=6, branching=4, thresholds=LADDER)
THETAS = (6.0, 12.0)


@pytest.fixture(scope="module")
def db():
    return random_database(seed=17, size=48)


@pytest.fixture(scope="module")
def single_index(db):
    return NBIndex.build(db, StarDistance(), seed=7, **BUILD)


@pytest.fixture(scope="module")
def bundle_dir(db, tmp_path_factory):
    """A canonical 3-shard hash bundle shared by the non-identity tests."""
    out = tmp_path_factory.mktemp("bundle")
    build_shards(
        db, StarDistance(), num_shards=3, out_dir=out, seed=7, **BUILD
    )
    return out


def _load(bundle_dir, db, **kwargs):
    return ShardedIndex.load(
        bundle_dir / "manifest.json", db, StarDistance(), **kwargs
    )


def _assert_same_result(got, want):
    assert got.answer == want.answer
    assert got.gains == want.gains
    assert got.covered == want.covered
    assert got.num_relevant == want.num_relevant
    assert got.pi == want.pi


# ---------------------------------------------------------------------------
# Partitioners
# ---------------------------------------------------------------------------
class TestPartition:
    def test_hash_is_deterministic_and_complete(self, db):
        a = HashPartitioner().assign(db, 4)
        b = HashPartitioner().assign(db, 4)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.assignments.shape == (len(db),)
        assert set(np.unique(a.assignments)) <= set(range(4))
        assert all(size >= 1 for size in a.sizes())
        assert sum(a.sizes()) == len(db)

    def test_clustering_is_seed_deterministic(self, db):
        engine = DistanceEngine(StarDistance(), graphs=db.graphs)
        a = ClusteringPartitioner().assign(db, 4, seed=7, engine=engine)
        b = ClusteringPartitioner().assign(db, 4, seed=7, engine=engine)
        assert np.array_equal(a.assignments, b.assignments)
        assert all(size >= 1 for size in a.sizes())

    def test_clustering_requires_engine(self, db):
        with pytest.raises(ValueError, match="engine"):
            ClusteringPartitioner().assign(db, 2)

    def test_unknown_partitioner_is_typed(self):
        with pytest.raises(PartitionError, match="unknown partitioner"):
            get_partitioner("alphabetical")

    def test_empty_shards_are_repaired(self):
        # Five structurally identical graphs hash to one digest, so a raw
        # mod-S assignment leaves shards empty; the repair must fill them.
        g = random_connected_graph(np.random.default_rng(0), 5)
        graphs = [LabeledGraph(g.node_labels, g.edges()) for _ in range(5)]
        db = GraphDatabase(graphs, np.zeros((5, 1)))
        part = HashPartitioner().assign(db, 3)
        assert all(size >= 1 for size in part.sizes())

    def test_more_shards_than_graphs_raises(self, tmp_path):
        g = random_connected_graph(np.random.default_rng(0), 5)
        db = GraphDatabase([g], np.zeros((1, 1)))
        with pytest.raises(ValueError):
            build_shards(db, StarDistance(), num_shards=2, out_dir=tmp_path)


# ---------------------------------------------------------------------------
# Bit-identity: the tentpole property
# ---------------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("num_shards,partitioner", [
        (1, "hash"), (2, "hash"), (4, "hash"), (7, "hash"),
        (2, "clustering"), (4, "clustering"), (7, "clustering"),
    ])
    def test_matches_single_index(
        self, db, single_index, tmp_path, num_shards, partitioner
    ):
        sharded = ShardedIndex.build(
            db, StarDistance(), num_shards=num_shards, out_dir=tmp_path,
            partitioner=partitioner, seed=7, **BUILD,
        )
        q = quartile_relevance(db)
        for theta in THETAS:
            want = single_index.query(q, theta, 6)
            got = sharded.query(q, theta, 6)
            _assert_same_result(got, want)
        sharded.invalidate_pools()

    def test_matches_baseline_greedy(self, db, bundle_dir):
        sharded = _load(bundle_dir, db)
        q = quartile_relevance(db)
        for theta in THETAS:
            want = baseline_greedy(db, StarDistance(), q, theta, 6)
            got = sharded.query(q, theta, 6)
            assert got.answer == want.answer
            assert got.gains == want.gains
        sharded.invalidate_pools()

    def test_duplicated_graphs_tie_break_across_shards(self, tmp_path):
        # Every graph exists twice; gains tie constantly and the canonical
        # rule (smallest global id) must hold across shard boundaries.
        base = random_database(seed=29, size=20)
        graphs = [LabeledGraph(g.node_labels, g.edges()) for g in base.graphs]
        graphs += [LabeledGraph(g.node_labels, g.edges()) for g in base.graphs]
        rng = np.random.default_rng(29)
        db = GraphDatabase(graphs, rng.random((len(graphs), 2)))
        ladder = ThresholdLadder([4.0, 8.0])
        single = NBIndex.build(
            db, StarDistance(), num_vantage_points=5, branching=4,
            thresholds=ladder, seed=3,
        )
        sharded = ShardedIndex.build(
            db, StarDistance(), num_shards=4, out_dir=tmp_path,
            num_vantage_points=5, branching=4, thresholds=ladder, seed=3,
        )
        q = quartile_relevance(db)
        want = single.query(q, 4.0, 8)
        got = sharded.query(q, 4.0, 8)
        _assert_same_result(got, want)
        assert got.answer == baseline_greedy(
            db, StarDistance(), q, 4.0, 8
        ).answer
        sharded.invalidate_pools()

    def test_query_flags_match_single_index(self, db, single_index, bundle_dir):
        sharded = _load(bundle_dir, db)
        q = quartile_relevance(db)
        for kwargs in (
            {"stop_on_zero_gain": True},
            {"enable_updates": False},
            {"stop_on_zero_gain": True, "enable_updates": False},
        ):
            want = single_index.query(q, 8.0, 12, **kwargs)
            got = sharded.query(q, 8.0, 12, **kwargs)
            _assert_same_result(got, want)
        sharded.invalidate_pools()

    def test_k_beyond_relevant_set(self, db, single_index, bundle_dir):
        sharded = _load(bundle_dir, db)
        q = quartile_relevance(db)
        want = single_index.query(q, 12.0, 500)
        got = sharded.query(q, 12.0, 500)
        _assert_same_result(got, want)
        assert len(got.answer) <= got.num_relevant
        sharded.invalidate_pools()


# ---------------------------------------------------------------------------
# Coordinator surface
# ---------------------------------------------------------------------------
class TestCoordinator:
    def test_stats_expose_coordinator_accounting(self, db, bundle_dir):
        sharded = _load(bundle_dir, db)
        result = sharded.query(quartile_relevance(db), 12.0, 5)
        coord = result.stats.coordinator
        assert coord["shards"] == 3
        assert coord["rounds"] >= len(result.answer)
        assert coord["pulls"] >= coord["rounds"]
        assert coord["scatter_resolves"] >= 1
        assert sum(coord["shard_relevant"]) == result.num_relevant
        sharded.invalidate_pools()

    def test_obs_metrics_roll_up(self, db, bundle_dir):
        sharded = _load(bundle_dir, db)
        with repro.observe() as run:
            sharded.query(quartile_relevance(db), 12.0, 5)
        counters = run.stats()["counters"]
        assert counters["shard.query.count"] == 1
        assert counters["shard.coordinator.rounds"] >= 1
        assert counters["shard.coordinator.pulls"] >= 1
        sharded.invalidate_pools()

    def test_off_ladder_theta_raises_typed(self, db, bundle_dir):
        sharded = _load(bundle_dir, db)
        with pytest.raises(OffLadderThetaError) as excinfo:
            sharded.query(quartile_relevance(db), 1e6, 3)
        assert excinfo.value.theta == 1e6
        assert excinfo.value.ladder_max == LADDER.values[-1]
        sharded.invalidate_pools()

    def test_session_reuse_across_thetas(self, db, single_index, bundle_dir):
        sharded = _load(bundle_dir, db)
        q = quartile_relevance(db)
        session = sharded.session(q)
        for theta in THETAS:
            got = session.query(theta, 4)
            want = single_index.query(q, theta, 4)
            _assert_same_result(got, want)
        sharded.invalidate_pools()

    def test_deadline_degradation_propagates(self, tmp_path):
        tiny = random_database(seed=3, size=16, min_nodes=3, max_nodes=5)
        sharded = ShardedIndex.build(
            tiny, ExactGED(), num_shards=2, out_dir=tmp_path,
            num_vantage_points=4, branching=4,
            thresholds=ThresholdLadder([4.0, 8.0]), seed=0, workers=1,
        )
        sharded.engine._cache.clear()
        for shard in sharded.shards:
            shard._counting._cache.clear()
        result = sharded.query(
            quartile_relevance(tiny, quantile=0.3), 4.0, 3,
            deadline=Deadline(3600.0, expansion_limit=1),
        )
        assert result.answer
        assert result.stats.degraded
        assert result.stats.degradations.get("ged.exact.beam", 0) >= 1
        sharded.invalidate_pools()


# ---------------------------------------------------------------------------
# Manifest + artifact validation
# ---------------------------------------------------------------------------
class TestManifest:
    def test_round_trip(self, db, bundle_dir):
        manifest = ShardManifest.load(bundle_dir / "manifest.json")
        assert manifest.num_shards == 3
        assert manifest.num_graphs == len(db)
        assert manifest.partitioner == "hash"
        assert manifest.ladder == tuple(LADDER.values)
        assert sum(e.num_graphs for e in manifest.shards) == len(db)
        members = np.concatenate([manifest.members(s) for s in range(3)])
        assert sorted(members.tolist()) == list(range(len(db)))

    def test_flipped_byte_is_detected(self, db, bundle_dir, tmp_path):
        text = (bundle_dir / "manifest.json").read_text()
        corrupted = text.replace('"num_graphs": 48', '"num_graphs": 49', 1)
        assert corrupted != text
        target = tmp_path / "manifest.json"
        target.write_text(corrupted)
        with pytest.raises(ManifestError, match="checksum mismatch"):
            ShardManifest.load(target)

    def test_truncated_and_non_manifest_files(self, bundle_dir, tmp_path):
        torn = tmp_path / "torn.json"
        torn.write_text((bundle_dir / "manifest.json").read_text()[:120])
        with pytest.raises(ManifestError):
            ShardManifest.load(torn)
        other = tmp_path / "other.json"
        other.write_text('{"hello": "world"}')
        with pytest.raises(ManifestError, match="not a shard manifest"):
            ShardManifest.load(other)

    def test_unsupported_schema_is_rejected(self, bundle_dir, tmp_path):
        document = json.loads((bundle_dir / "manifest.json").read_text())
        document["manifest"]["schema"] = "repro.shard-manifest/v0"
        canonical = json.dumps(
            document["manifest"], sort_keys=True, separators=(",", ":")
        )
        document["crc32"] = zlib.crc32(canonical.encode())
        target = tmp_path / "manifest.json"
        target.write_text(json.dumps(document))
        with pytest.raises(ManifestError, match="schema"):
            ShardManifest.load(target)

    def test_manifest_error_is_a_persistence_error(self):
        assert issubclass(ManifestError, PersistenceError)

    def test_wrong_database_is_rejected(self, bundle_dir):
        other = random_database(seed=5, size=48)
        with pytest.raises(DatabaseMismatchError):
            _load(bundle_dir, other)

    def test_corrupt_shard_artifact_is_rejected(self, db, bundle_dir, tmp_path):
        for name in os.listdir(bundle_dir):
            (tmp_path / name).write_bytes((bundle_dir / name).read_bytes())
        (tmp_path / "shard-001.npz").write_bytes(b"not an index artifact")
        with pytest.raises(CorruptIndexError, match="stale or tampered"):
            _load(tmp_path, db)


# ---------------------------------------------------------------------------
# Loading + per-shard hot-reload reuse
# ---------------------------------------------------------------------------
class TestReload:
    def test_full_reuse_on_unchanged_bundle(self, db, bundle_dir):
        first = _load(bundle_dir, db)
        second = _load(bundle_dir, db, previous=first)
        assert second.reused_shards == 3
        for i in range(3):
            assert second.shards[i] is first.shards[i]
        first.invalidate_pools()
        second.invalidate_pools()

    def test_partial_reuse_when_one_shard_changes(self, db, bundle_dir, tmp_path):
        for name in os.listdir(bundle_dir):
            (tmp_path / name).write_bytes((bundle_dir / name).read_bytes())
        first = _load(tmp_path, db)
        # Rebuild exactly one shard with a *different* tree shape and point
        # the manifest at its new checksum: only that shard may reload, and
        # answers must not move (correctness is tree-shape independent).
        manifest = ShardManifest.load(tmp_path / "manifest.json")
        members = [int(i) for i in manifest.members(0)]
        rebuilt = NBIndex.build(
            db.subset(members), StarDistance(), num_vantage_points=4,
            branching=3, thresholds=LADDER, seed=99,
        )
        save_index(rebuilt, tmp_path / "shard-000.npz")
        entries = list(manifest.shards)
        entries[0] = dataclasses.replace(
            entries[0],
            checksum=zlib.crc32((tmp_path / "shard-000.npz").read_bytes()),
        )
        dataclasses.replace(manifest, shards=tuple(entries)).save(
            tmp_path / "manifest.json"
        )
        second = _load(tmp_path, db, previous=first)
        assert second.reused_shards == 2
        assert second.shards[0] is not first.shards[0]
        assert second.shards[1] is first.shards[1]
        assert second.shards[2] is first.shards[2]
        # Still the same bit-identical answers after the partial reload.
        q = quartile_relevance(db)
        assert second.query(q, 8.0, 4).answer == first.query(q, 8.0, 4).answer
        first.invalidate_pools()
        second.invalidate_pools()

    def test_index_manager_watches_manifest(self, db, bundle_dir):
        sharded = _load(bundle_dir, db)
        manager = IndexManager(
            sharded, database=db, distance=StarDistance(),
            watch_path=bundle_dir / "manifest.json",
        )
        assert manager.maybe_reload() is False  # unchanged fingerprint
        os.utime(bundle_dir / "manifest.json")
        assert manager.maybe_reload() is True
        assert manager.generation == 1
        assert manager.index.reused_shards == 3  # per-shard reuse kicked in
        manager.index.invalidate_pools()


# ---------------------------------------------------------------------------
# Service + facade integration
# ---------------------------------------------------------------------------
class TestServiceIntegration:
    def test_service_answers_match_single_index(self, db, single_index, bundle_dir):
        sharded = repro.open_index(bundle_dir / "manifest.json", db, shards=True)
        with QueryService(sharded, config=ServiceConfig()) as service:
            response = service.call(
                QueryRequest(id=1, op="query", theta=12.0, k=5)
            )
            assert response["ok"], response
            want = single_index.query(quartile_relevance(db), 12.0, 5)
            assert response["result"]["answer"] == want.answer
            stats = service.stats()
            assert stats["index"]["num_shards"] == 3
            assert stats["index"]["tree_nodes"] == sharded.tree_nodes
            reloaded = service.call(QueryRequest(
                id=2, op="reload", path=str(bundle_dir / "manifest.json"),
            ))
            assert reloaded["ok"], reloaded
            assert service.manager.index.reused_shards == 3

    def test_off_ladder_theta_is_a_client_error(self, db, bundle_dir):
        sharded = repro.open_index(bundle_dir / "manifest.json", db, shards=True)
        with QueryService(sharded, config=ServiceConfig()) as service:
            response = service.call(
                QueryRequest(id=3, op="query", theta=1e6, k=3)
            )
            assert not response["ok"]
            assert response["error"]["code"] == "invalid_request"
            assert "ladder" in response["error"]["message"]
            # A bad theta is not a backend failure: breaker stays closed,
            # nothing lands in the crash journal.
            assert service.breaker.state == "closed"
            assert service.journal.stats()["crashes"] == 0

    def test_load_shards_facade(self, db, bundle_dir):
        sharded = repro.open_index(bundle_dir / "manifest.json", db, shards=True)
        assert isinstance(sharded, ShardedIndex)
        assert sharded.num_shards == 3
        assert sharded.stats()["num_shards"] == 3
        sharded.invalidate_pools()
