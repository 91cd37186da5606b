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
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import baseline_greedy
from repro.engine import DistanceEngine
from repro.ged import ExactGED, StarDistance
from repro.graphs import GraphDatabase, LabeledGraph, quartile_relevance
from repro.index import NBIndex, OffLadderThetaError, save_index
from repro.durability import Scrubber, verify_deployment
from repro.graphs.io import save_database
from repro.index.errors import ReadOnlyIndexError
from repro.index.persistence import load_index
from repro.index.pivec import ThresholdLadder
from repro.index.vantage import VantageFrame
from repro.replica import ReplicatedIndex
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
from repro.shard.manifest import ShardEntry, database_checksum
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
        a = ClusteringPartitioner().assign(db, 4, seed=7, distance=engine)
        b = ClusteringPartitioner().assign(db, 4, seed=7, distance=engine)
        assert np.array_equal(a.assignments, b.assignments)
        assert all(size >= 1 for size in a.sizes())

    def test_clustering_requires_engine(self, db):
        with pytest.raises(ValueError, match="needs a distance"):
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

    def test_matches_baseline_greedy(self, db, bundle_dir):
        sharded = _load(bundle_dir, db)
        q = quartile_relevance(db)
        for theta in THETAS:
            want = baseline_greedy(db, StarDistance(), q, theta, 6)
            got = sharded.query(q, theta, 6)
            assert got.answer == want.answer
            assert got.gains == want.gains

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

    def test_query_flags_match_single_index(self, db, single_index, bundle_dir):
        sharded = _load(bundle_dir, db)
        q = quartile_relevance(db)
        for kwargs in ({}, {"stop_on_zero_gain": True}):
            want = single_index.query(q, 8.0, 12, **kwargs)
            got = sharded.query(q, 8.0, 12, **kwargs)
            _assert_same_result(got, want)

    def test_k_beyond_relevant_set(self, db, single_index, bundle_dir):
        sharded = _load(bundle_dir, db)
        q = quartile_relevance(db)
        want = single_index.query(q, 12.0, 500)
        got = sharded.query(q, 12.0, 500)
        _assert_same_result(got, want)
        assert len(got.answer) <= got.num_relevant


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

    def test_obs_metrics_roll_up(self, db, bundle_dir):
        sharded = _load(bundle_dir, db)
        with repro.observe() as run:
            sharded.query(quartile_relevance(db), 12.0, 5)
        counters = run.stats()["counters"]
        assert counters["shard.query.count"] == 1
        assert counters["shard.coordinator.rounds"] >= 1
        assert counters["shard.coordinator.pulls"] >= 1

    def test_off_ladder_theta_raises_typed(self, db, bundle_dir):
        sharded = _load(bundle_dir, db)
        with pytest.raises(OffLadderThetaError) as excinfo:
            sharded.query(quartile_relevance(db), 1e6, 3)
        assert excinfo.value.theta == 1e6
        assert excinfo.value.ladder_max == LADDER.values[-1]

    def test_session_reuse_across_thetas(self, db, single_index, bundle_dir):
        sharded = _load(bundle_dir, db)
        q = quartile_relevance(db)
        session = sharded.session(q)
        for theta in THETAS:
            got = session.query(theta, 4)
            want = single_index.query(q, theta, 4)
            _assert_same_result(got, want)

    def test_deadline_degradation_propagates(self, tmp_path):
        tiny = random_database(seed=3, size=16, min_nodes=3, max_nodes=5)
        sharded = ShardedIndex.build(
            tiny, ExactGED(), num_shards=2, out_dir=tmp_path,
            num_vantage_points=4, branching=4,
            thresholds=ThresholdLadder([4.0, 8.0]), seed=0,
        )
        sharded.engine._cache.clear()
        for shard in sharded.shards:
            shard.engine._cache.clear()
        result = sharded.query(
            quartile_relevance(tiny, quantile=0.3), 4.0, 3,
            deadline=Deadline(3600.0, expansion_limit=1),
        )
        assert result.answer
        assert result.stats.degraded
        assert result.stats.degradations.get("ged.exact.beam", 0) >= 1


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
# One vantage frame per bundle
# ---------------------------------------------------------------------------
def _legacy_bundle(db, out_dir, num_shards=3, seed=7):
    """A bundle as builds before the frame wrote it: every shard its own
    NB-Index with its own vantage points, a ``v1`` manifest without a
    frame."""
    out_dir.mkdir(parents=True, exist_ok=True)
    partition = HashPartitioner().assign(db, num_shards)
    entries = []
    for shard_id in range(num_shards):
        members = [int(i) for i in partition.members(shard_id)]
        index = NBIndex.build(
            db.subset(members), StarDistance(), seed=seed + shard_id, **BUILD
        )
        artifact = out_dir / f"shard-{shard_id:03d}.npz"
        save_index(index, artifact)
        entries.append(ShardEntry(
            shard_id, artifact.name, zlib.crc32(artifact.read_bytes()),
            len(members),
        ))
    body = ShardManifest(
        num_shards=num_shards, num_graphs=len(db), partitioner="hash",
        seed=seed, ladder=tuple(LADDER.values),
        assignments=partition.assignments,
        database_checksum=database_checksum(db), shards=tuple(entries),
        frame=(), build={"num_vantage_points": 6, "branching": 4},
    )._body() | {"schema": "repro.shard-manifest/v1", "frame": None}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    (out_dir / "manifest.json").write_text(json.dumps(
        {"manifest": body, "crc32": zlib.crc32(canonical.encode())}
    ))
    return out_dir / "manifest.json"


def _off_frame_bundle(db, bundle_dir, tmp_path):
    """``bundle_dir`` with shard 1 swapped for a checksum-valid artifact
    embedded against *other* vantage graphs."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    for name in os.listdir(bundle_dir):
        (tmp_path / name).write_bytes((bundle_dir / name).read_bytes())
    manifest = ShardManifest.load(tmp_path / "manifest.json")
    members = [int(i) for i in manifest.members(1)]
    stray = NBIndex.build(db.subset(members), StarDistance(), seed=3, **BUILD)
    save_index(stray, tmp_path / "shard-001.npz")
    entries = list(manifest.shards)
    entries[1] = dataclasses.replace(
        entries[1],
        checksum=zlib.crc32((tmp_path / "shard-001.npz").read_bytes()),
    )
    dataclasses.replace(manifest, shards=tuple(entries)).save(
        tmp_path / "manifest.json"
    )
    return tmp_path / "manifest.json"


class TestFrame:
    def test_every_shard_is_embedded_in_the_manifests_frame(self, db, bundle_dir):
        sharded = _load(bundle_dir, db)
        frame = sharded.manifest.frame
        assert len(frame) == 6 and list(frame) == sharded.frame.vantage_ids
        star = StarDistance()
        want = np.array([[star(db[v], db[g]) for v in frame] for g in range(len(db))])
        assert np.array_equal(sharded.frame.coords, want)
        for members, shard in zip(sharded.global_ids, sharded.shards):
            assert shard.embedding.vantage_indices == list(frame)
            assert np.array_equal(shard.embedding.coords, want[members])
        # Most vantage graphs of a shard live elsewhere, and nothing about
        # a stranger is ever measured again at query time.
        assert any(sharded.shard_of[v] != 0 for v in frame)
        result = sharded.query(quartile_relevance(db), 6.0, 5)
        assert result.stats.coordinator["foreign_embeds"] == 0
        assert verify_deployment(bundle_dir)["ok"]

    def test_a_shard_on_its_own_refuses_to_embed(self, db, bundle_dir):
        """A shard artifact says that its vantage ids are the frame's:
        loaded stand-alone it must not embed a new graph against whatever
        members happen to carry those ids."""
        manifest = ShardManifest.load(bundle_dir / "manifest.json")
        sub = db.subset([int(i) for i in manifest.members(1)])
        shard = load_index(bundle_dir / "shard-001.npz", sub, StarDistance())
        assert shard.embedding.framed
        with pytest.raises(ValueError, match="VantageFrame"):
            shard.embedding.embed(db[0])
        with pytest.raises(ReadOnlyIndexError, match="bundle's shard"):
            shard.insert(db[0], db.features[0])
        assert len(sub) == len(manifest.members(1))  # nothing was appended
        plain = NBIndex.build(sub, StarDistance(), seed=1, **BUILD)
        assert not plain.embedding.framed

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_frame_bounds_sandwich_true_distances(self, data):
        """Theorem 4 needs *fixed* vantage points, not member ones: using
        only the vantage graphs that do not live on ``g``'s shard,
        ``max_v |d(v,g) − d(v,h)| ≤ d(g,h) ≤ min_v d(v,g) + d(v,h)``."""
        seed = data.draw(st.integers(0, 2**16), label="seed")
        database = random_database(
            seed=seed, size=data.draw(st.integers(12, 40), label="size")
        )
        with tempfile.TemporaryDirectory() as tmp:
            sharded = ShardedIndex.build(
                database, StarDistance(), out_dir=tmp, seed=seed,
                num_shards=data.draw(st.sampled_from([2, 4]), label="shards"),
                partitioner=data.draw(st.sampled_from(["hash", "clustering"])),
                num_vantage_points=data.draw(st.integers(1, 3), label="|V|"),
                branching=3,
            )
        star, coords = StarDistance(), sharded.frame.coords
        home = sharded.shard_of[sharded.frame.vantage_ids]
        checked = 0
        for g in range(len(database)):
            foreign = np.flatnonzero(home != sharded.shard_of[g])
            for h in range(1, len(database), 3):
                d = star(database[g], database[h])
                a, b = coords[g, foreign], coords[h, foreign]
                if foreign.size:
                    assert np.max(np.abs(a - b)) <= d + 1e-9
                    assert d <= np.min(a + b) + 1e-9
                    checked += 1
        assert checked  # no shard is empty: some graph sees a stranger

    def test_off_frame_shard_is_refused_everywhere(self, db, bundle_dir, tmp_path):
        manifest_path = _off_frame_bundle(db, bundle_dir, tmp_path / "bundle")
        with pytest.raises(CorruptIndexError, match="frame"):
            ShardedIndex.load(manifest_path, db, StarDistance())
        report = verify_deployment(manifest_path)
        assert not report["ok"]
        assert any("frame" in problem for problem in report["problems"])
        # The scrubber finds it under a serving index too, and rebuilds it
        # in the frame: the bundle verifies and loads again.
        serving = _load(bundle_dir, db)
        serving.path = manifest_path
        serving.manifest = ShardManifest.load(manifest_path)
        report = Scrubber(serving).scrub_once(raise_errors=True)
        assert any("frame" in line for line in report["corruptions"])
        assert report["healed"] == [
            f"{manifest_path.parent / 'shard-001.npz'}: rebuilt from the "
            f"frame and the manifest"
        ]
        assert verify_deployment(manifest_path)["ok"]
        healed = ShardedIndex.load(manifest_path, db, StarDistance())
        fn = quartile_relevance(db, quantile=0.5)
        _assert_same_result(healed.query(fn, 8.0, 3), serving.query(fn, 8.0, 3))

    def test_legacy_bundle_is_rejected(self, db, tmp_path):
        """A ``v1`` bundle is refused by every reader, not re-embedded."""
        manifest_path = _legacy_bundle(db, tmp_path / "legacy")
        for open_bundle in (
            lambda: ShardedIndex.load(manifest_path, db, StarDistance()),
            lambda: ReplicatedIndex.open(
                manifest_path, db, StarDistance(), replicas=1
            ),
            lambda: repro.open_index(manifest_path, db, mutable=True),
        ):
            with pytest.raises(ManifestError, match="unsupported manifest schema"):
                open_bundle()
        assert not verify_deployment(manifest_path)["ok"]

    def test_mutable_bundle_keeps_its_frame_and_embeds_each_graph_once(
        self, db, tmp_path, monkeypatch,
    ):
        """S = 2 with a journal: tombstone a vantage graph, insert, query,
        compact one shard, restart.  The frame never changes; a memtable
        graph's row costs ≤ |V| distances once per process — not per
        session, not per shard, not again at compaction."""
        manifest_path = build_shards(
            db, StarDistance(), num_shards=2, out_dir=tmp_path / "bundle",
            seed=7, **BUILD,
        )
        save_database(db, tmp_path / "db.jsonl")
        embeds = []
        row = VantageFrame.row

        def spying(self, gid, engine):
            before = engine.evaluations
            out = row(self, gid, engine)
            if engine.evaluations > before:
                embeds.append((gid, engine.evaluations - before))
            return out

        monkeypatch.setattr(VantageFrame, "row", spying)

        def open_mutable():
            return repro.open_index(
                manifest_path, tmp_path / "db.jsonl", mutable=True,
                journal=tmp_path / "m.journal", seed=7,
            )

        def check(index):
            """Answers equal the paper's greedy; returns the frame rows the
            queries had computed."""
            shadow = index.database
            q = quartile_relevance(db)  # thresholds fixed from the base
            total = 0
            for theta in THETAS:
                got = index.query(q, theta, 8)
                _assert_same_result(
                    got, baseline_greedy(shadow, StarDistance(), q, theta, 8)
                )
                total += got.stats.coordinator["foreign_embeds"]
            return total

        mutable = open_mutable()
        frame = list(mutable.frame.vantage_ids)
        assert frame == list(ShardManifest.load(manifest_path).frame)
        mutable.delete(frame[0])  # a tombstoned vantage graph stays an origin
        assert check(mutable) == 0
        # Donors that all route to the same shard: a *partial* compaction.
        pool = random_database(seed=41, size=24)
        parity = lambda g: zlib.crc32(repr(g.canonical_form()).encode()) % 2
        donors = [pool[i] for i in range(len(pool)) if parity(pool[i]) == 0][:3]
        relevant_row = db.features.max(axis=0)
        new_ids = [mutable.insert(graph, relevant_row) for graph in donors]
        # First sight costs one row per graph a shard had to look at …
        first = check(mutable)
        assert 0 < first == len(embeds) <= len(new_ids)
        assert check(mutable) == 0  # … remembered across sessions and shards
        untouched = mutable.base.shards[1]
        report = mutable.compact()
        assert report["rebuilt_shards"] == [0] and report["reused_shards"] == 1
        assert mutable.base.shards[1] is untouched
        assert not mutable.frame.extra  # stored now: no second copy kept
        # Rows the queries computed were handed over, the rest measured now:
        # every absorbed graph exactly once, ≤ |V| distances each.
        assert sorted(gid for gid, _ in embeds) == new_ids
        assert all(calls <= len(frame) for _, calls in embeds)
        assert list(mutable.frame.vantage_ids) == frame
        assert list(ShardManifest.load(manifest_path).frame) == frame
        assert verify_deployment(manifest_path)["ok"]
        assert check(mutable) == 0
        mutable.close()
        # Restart: the rows now come from the rebuilt shard's artifact.
        reopened = open_mutable()
        assert list(reopened.frame.vantage_ids) == frame
        assert reopened.memtable_size == 0
        assert check(reopened) == 0
        late = reopened.insert(pool[23], relevant_row)
        assert check(reopened) == 1 and embeds[-1][0] == late
        assert len(embeds) == len(new_ids) + 1
        reopened.close()


# ---------------------------------------------------------------------------
# Loading + per-shard hot-reload reuse
# ---------------------------------------------------------------------------
class TestReload:
    def test_cold_load_reads_no_artifact_for_the_frame(
        self, db, bundle_dir, monkeypatch,
    ):
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(
            Path, "read_bytes",
            lambda self: reads.append(self.name) or read_bytes(self),
        )
        _load(bundle_dir, db)
        # One read serves the checksum and the load; the frame is
        # assembled from the loaded shards, not read again.
        assert sorted(reads) == [f"shard-{s:03d}.npz" for s in range(3)]

    def test_full_reuse_on_unchanged_bundle(self, db, bundle_dir):
        first = _load(bundle_dir, db)
        second = _load(bundle_dir, db, previous=first)
        assert second.reused_shards == 3
        for i in range(3):
            assert second.shards[i] is first.shards[i]
        assert second.frame is first.frame

    def test_partial_reuse_when_one_shard_changes(self, db, bundle_dir, tmp_path):
        for name in os.listdir(bundle_dir):
            (tmp_path / name).write_bytes((bundle_dir / name).read_bytes())
        first = _load(tmp_path, db)
        # Rebuild exactly one shard with a *different* tree shape (in the
        # bundle's frame) and point the manifest at its new checksum: only
        # that shard may reload, and answers must not move (correctness is
        # tree-shape independent).
        manifest = ShardManifest.load(tmp_path / "manifest.json")
        members = manifest.members(0)
        rebuilt = NBIndex.from_coords(
            db.subset([int(i) for i in members]), StarDistance(),
            manifest.frame, first.frame.coords[members], branching=3,
            thresholds=LADDER, rng=np.random.default_rng(99),
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
        # A reused shard costs no disk at all — not even for the frame.
        (tmp_path / "shard-001.npz").unlink()
        (tmp_path / "shard-002.npz").unlink()
        second = _load(tmp_path, db, previous=first)
        assert second.reused_shards == 2
        assert np.array_equal(second.frame.coords, first.frame.coords)
        assert second.shards[0] is not first.shards[0]
        assert second.shards[1] is first.shards[1]
        assert second.shards[2] is first.shards[2]
        # Still the same bit-identical answers after the partial reload.
        q = quartile_relevance(db)
        assert second.query(q, 8.0, 4).answer == first.query(q, 8.0, 4).answer

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
            # A bad theta is not a crash: nothing lands in the journal.
            assert service.journal.stats()["crashes"] == 0

    def test_load_shards_facade(self, db, bundle_dir):
        sharded = repro.open_index(bundle_dir / "manifest.json", db, shards=True)
        assert isinstance(sharded, ShardedIndex)
        assert sharded.num_shards == 3
        assert sharded.stats()["num_shards"] == 3
