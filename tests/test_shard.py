"""Tests for the sharded NB-Index (repro.shard).

The load-bearing property is *bit-identity*: for any shard count and any
partitioner, a bundle — one index over its frame — returns exactly the
answer (ids, gains, ordering, coverage) of the single-index engine, which
is itself exactly ``baseline_greedy``, and so does the multi-frontier
coordinator over the bundle's per-shard frontiers
(``tests.coordinated.CoordinatedBundle``).
Everything else — partitioners, manifest persistence, corruption
detection, per-shard hot-reload reuse, service integration, deadline
cancellation — is tested around that core.
"""

from __future__ import annotations

import dataclasses
import io
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
from repro import cli
from repro.cascade import FilterCascade
from repro.core import baseline_greedy
from repro.core.results import QueryStats
from repro.engine import DistanceEngine
from repro.ged import ExactGED, StarDistance
from repro.graphs import GraphDatabase, LabeledGraph, quartile_relevance
from repro.index import NBIndex, save_index
from repro.durability import Scrubber, verify_deployment
from repro.graphs.io import save_database
from repro.index.coordinator import run_greedy
from repro.index.persistence import load_index
from repro.index.persistence import database_fingerprint, save_frame_rows
from repro.index.vantage import VantageEmbedding
from repro.replica import ReplicatedIndex
from repro.resilience import BudgetExceeded, Deadline
from repro.resilience.atomicio import read_checksummed, write_checksummed
from repro.resilience.errors import (
    CorruptIndexError,
    DatabaseMismatchError,
    IndexFormatError,
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
from tests.conftest import random_database, random_connected_graph, rungs
from tests.coordinated import CoordinatedBundle

#: Shared build shape.
BUILD = dict(num_vantage_points=6)
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
        single = NBIndex.build(
            db, StarDistance(), num_vantage_points=5, seed=3,
        )
        sharded = ShardedIndex.build(
            db, StarDistance(), num_shards=4, out_dir=tmp_path,
            num_vantage_points=5, seed=3,
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
        # One frontier over the bundle's frame, whatever S is on disk.
        assert coord["shards"] == 1
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

    def test_off_ladder_theta_is_answered(self, db, single_index, bundle_dir):
        sharded = _load(bundle_dir, db)
        q = quartile_relevance(db)
        for theta in (60.0, 1e6):
            _assert_same_result(
                sharded.query(q, theta, 3), single_index.query(q, theta, 3)
            )

    def test_session_reuse_across_thetas(self, db, single_index, bundle_dir):
        sharded = _load(bundle_dir, db)
        q = quartile_relevance(db)
        session = sharded.session(q)
        for theta in THETAS:
            got = session.query(theta, 4)
            want = single_index.query(q, theta, 4)
            _assert_same_result(got, want)

    def test_deadline_cancellation_propagates(self, tmp_path):
        tiny = random_database(seed=3, size=16, min_nodes=3, max_nodes=5)
        sharded = ShardedIndex.build(
            tiny, ExactGED(), num_shards=2, out_dir=tmp_path,
            num_vantage_points=4, seed=0,
        )
        sharded.engine._cache.clear()
        q = quartile_relevance(tiny, quantile=0.3)
        with pytest.raises(BudgetExceeded):
            sharded.query(q, 4.0, 3, deadline=Deadline(0.0))
        assert sharded.query(q, 4.0, 3).opt_upper is not None


class TestCoordinatorBehindReplicas:
    """The multi-frontier loop (in production only beside a memtable)
    over S per-shard frontiers with many strangers each."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_worker_frontiers_answer_the_greedy_and_account_every_survivor(
        self, data,
    ):
        seed = data.draw(st.integers(0, 2**16), label="seed")
        database = random_database(
            seed=seed, size=data.draw(st.integers(24, 56), label="size")
        )
        with tempfile.TemporaryDirectory() as tmp:
            bundle = CoordinatedBundle.build(
                database, StarDistance(), out_dir=tmp, seed=seed,
                num_shards=data.draw(st.sampled_from([2, 4]), label="S"),
                partitioner=data.draw(st.sampled_from(["hash", "clustering"])),
                num_vantage_points=4,
            )
        q = quartile_relevance(
            database, quantile=data.draw(st.sampled_from([0.1, 0.4, 0.7]))
        )
        thetas = rungs(database.graphs, StarDistance(), seed=seed)
        rung = data.draw(st.integers(0, len(thetas) - 1), label="rung")
        theta = thetas[rung]
        k = data.draw(st.integers(1, 10), label="k")
        session = bundle.session(q)
        stats = QueryStats()
        frontiers = bundle.frontiers(session, theta, stats, FilterCascade())
        answer, gains, _, coord = run_greedy(
            frontiers, lambda gid: frontiers[int(bundle.shard_of[gid])],
            session.universe, k, int(session.relevant.size),
            stop_on_zero_gain=False, stats=stats,
        )
        want = baseline_greedy(database, StarDistance(), q, theta, k)
        assert (answer, gains) == (want.answer, want.gains)
        # Every tier-1 survivor that is not dropped against remembered
        # bounds (memo_prunes) opens every foreign window (pi_hat_refines)
        # and ends in exactly one of the bound ladder's outcomes.
        survivors = coord["pi_hat_refines"] + coord["memo_prunes"]
        outcomes = (
            coord["partial_scatters"] + coord["scatter_resolves"]
            + coord["refine_prunes"] + coord["memo_prunes"]
        )
        assert survivors == outcomes, coord
        assert coord["scatter_resolves"] > 0, coord
        assert coord["foreign_embeds"] == 0  # every row is in the frame


# ---------------------------------------------------------------------------
# Manifest + artifact validation
# ---------------------------------------------------------------------------
class TestManifest:
    def test_round_trip(self, db, bundle_dir):
        manifest = ShardManifest.load(bundle_dir / "manifest.json")
        assert manifest.num_shards == 3
        assert manifest.num_graphs == len(db)
        assert manifest.partitioner == "hash"
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

    def test_replica_readers_check_the_manifest_crc(
        self, db, bundle_dir, tmp_path,
    ):
        """Shard 1 rewritten with one coordinate off by 0.5 in an intact
        container: the replicated cluster's one frame read refuses it as
        an in-process open does, before any worker is forked (workers
        read no artifact; they inherit that frame)."""
        manifest_path = _tampered_bundle(db, bundle_dir, tmp_path, crc=False)
        with pytest.raises(CorruptIndexError, match="stale or tampered"):
            ShardedIndex.load(manifest_path, db, StarDistance())
        with pytest.raises(CorruptIndexError, match="stale or tampered"):
            ShardManifest.load(manifest_path).load_frame(tmp_path)
        with pytest.raises(CorruptIndexError, match="stale or tampered"):
            ReplicatedIndex.open(manifest_path, db, StarDistance(), replicas=1)

    def test_verify_recomputes_frame_rows(self, db, bundle_dir, tmp_path):
        """The same wrong coordinate with its crc32 in the manifest passes
        every checksum; ``repro verify`` given the database finds it."""
        manifest_path = _tampered_bundle(db, bundle_dir, tmp_path, crc=True)
        database = tmp_path / "db.jsonl"
        save_database(db, database)
        assert verify_deployment(manifest_path)["ok"]
        assert cli.main(["verify", str(manifest_path)]) == 0
        assert cli.main(["verify", str(database), str(manifest_path)]) == 1
        assert cli.main(["verify", str(database), str(bundle_dir)]) == 0

    def test_corrupt_shard_artifact_is_rejected(self, db, bundle_dir, tmp_path):
        for name in os.listdir(bundle_dir):
            (tmp_path / name).write_bytes((bundle_dir / name).read_bytes())
        (tmp_path / "shard-001.npz").write_bytes(b"not an index artifact")
        with pytest.raises(CorruptIndexError, match="stale or tampered"):
            _load(tmp_path, db)


#: The thresholds format-4 artifacts and their manifests stored.
_OLD_LADDER = [2.0, 4.0, 8.0, 16.0]


def _as_format_4(artifact: Path) -> int:
    """Rewrite a saved index as builds wrote it before format 5: version 4
    plus a ``ladder`` array.  Returns the new file's crc32."""
    with np.load(io.BytesIO(read_checksummed(artifact))) as data:
        arrays = dict(data)
    arrays.update(format_version=np.array([4]), ladder=np.array(_OLD_LADDER))
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    write_checksummed(artifact, buffer.getvalue())
    return zlib.crc32(artifact.read_bytes())


def _with_a_ladder(manifest_path: Path) -> None:
    """Every shard of a bundle as format 4, under a manifest that lists
    the ladder too."""
    manifest = ShardManifest.load(manifest_path)
    body = dataclasses.replace(manifest, shards=tuple(
        dataclasses.replace(
            entry, checksum=_as_format_4(manifest_path.parent / entry.path)
        )
        for entry in manifest.shards
    ))._body() | {"ladder": _OLD_LADDER}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    manifest_path.write_text(json.dumps(
        {"manifest": body, "crc32": zlib.crc32(canonical.encode())}
    ))


class TestFilesWrittenWithALadder:
    """Before format 5 an index artifact stored a ``ladder`` array and a
    manifest a ``ladder`` list: every reader still opens them, ignores
    both, and answers as the greedy does."""

    @staticmethod
    def _opens_everywhere(path, db, tmp_path):
        fn = quartile_relevance(db, quantile=0.5)
        want = baseline_greedy(db, StarDistance(), fn, 8.0, 4)
        database = tmp_path / "db.jsonl"
        save_database(db, database)
        opened = [
            repro.open_index(path, db),
            repro.open_index(
                path, database, mutable=True, journal=tmp_path / "m.journal"
            ),
        ]
        if path.name == "manifest.json":
            opened.append(ShardedIndex.load(path, db, StarDistance()))
        for index in opened:
            got = index.query(fn, 8.0, 4)
            assert (got.answer, got.gains) == (want.answer, want.gains)
        assert verify_deployment(path)["ok"]
        assert cli.main(["verify", str(database), str(path)]) == 0
        return opened[1]

    def test_a_format_4_index(self, db, single_index, tmp_path):
        path = tmp_path / "index.npz"
        save_index(single_index, path)
        _as_format_4(path)
        self._opens_everywhere(path, db, tmp_path).close()

    def test_a_bundle_whose_manifest_lists_a_ladder(
        self, db, bundle_dir, tmp_path,
    ):
        (tmp_path / "bundle").mkdir()
        for name in os.listdir(bundle_dir):
            (tmp_path / "bundle" / name).write_bytes(
                (bundle_dir / name).read_bytes()
            )
        manifest_path = tmp_path / "bundle" / "manifest.json"
        _with_a_ladder(manifest_path)
        mutable = self._opens_everywhere(manifest_path, db, tmp_path)
        # A compaction rewrites the manifest without the ladder.
        graph = random_connected_graph(np.random.default_rng(3), 5)
        mutable.insert(graph, np.zeros(db.num_features))
        assert mutable.compact()["rebuilt_shards"]
        mutable.close()
        body = json.loads(manifest_path.read_text())["manifest"]
        assert "ladder" not in body
        assert verify_deployment(manifest_path)["ok"]


def _stored_version(artifact: Path) -> int:
    with np.load(io.BytesIO(read_checksummed(artifact))) as data:
        return int(data["format_version"][0])


def _as_format_5(artifact: Path, members_db=None) -> int:
    """Rewrite an artifact as builds wrote it at format 5: a single index
    with a false ``framed`` flag, or — given its sub-database — a shard as
    a stand-alone index over its members, with a true flag, their
    fingerprint and a build time.  Returns the new file's crc32."""
    with np.load(io.BytesIO(read_checksummed(artifact))) as data:
        arrays = dict(data)
    arrays.update(format_version=np.array([5]), framed=np.array([False]))
    if members_db is not None:
        arrays.update(
            framed=np.array([True]),
            fingerprint=database_fingerprint(members_db),
            build_seconds=np.array([0.25]),
        )
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    write_checksummed(artifact, buffer.getvalue())
    return zlib.crc32(artifact.read_bytes())


def _copy_bundle(bundle_dir: Path, out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    for name in os.listdir(bundle_dir):
        (out / name).write_bytes((bundle_dir / name).read_bytes())
    return out / "manifest.json"


class TestFormat5Files:
    """Before format 6 a shard file was a stand-alone index over its
    members' sub-database, flagged ``framed``, and a single index carried
    the flag too: both still open everywhere, and a compaction rewrites
    the shards it changes as format 6."""

    def test_a_format_5_index(self, db, single_index, tmp_path):
        path = tmp_path / "index.npz"
        save_index(single_index, path)
        _as_format_5(path)
        TestFilesWrittenWithALadder._opens_everywhere(
            path, db, tmp_path
        ).close()

    def test_a_format_5_bundle(self, db, bundle_dir, tmp_path):
        manifest_path = _copy_bundle(bundle_dir, tmp_path / "bundle")
        manifest = ShardManifest.load(manifest_path)
        manifest = dataclasses.replace(manifest, shards=tuple(
            dataclasses.replace(entry, checksum=_as_format_5(
                manifest_path.parent / entry.path,
                db.subset([int(i) for i in manifest.members(entry.shard_id)]),
            ))
            for entry in manifest.shards
        ))
        manifest.save(manifest_path)
        mutable = TestFilesWrittenWithALadder._opens_everywhere(
            manifest_path, db, tmp_path
        )
        graph = random_connected_graph(np.random.default_rng(3), 5)
        mutable.insert(graph, np.zeros(db.num_features))
        rebuilt = mutable.compact()["rebuilt_shards"]
        mutable.close()
        assert rebuilt
        for entry in ShardManifest.load(manifest_path).shards:
            assert _stored_version(manifest_path.parent / entry.path) == (
                6 if entry.shard_id in rebuilt else 5
            )
        assert verify_deployment(manifest_path)["ok"]


class TestAShardFileIsNotAnIndex:
    """A shard file is its members' frame rows, which describe no
    database on their own: every index loader refuses it, naming the
    manifest to open instead — as written today and at format 5."""

    @pytest.mark.parametrize("version", [5, 6])
    def test_refused_by_every_index_loader(
        self, db, bundle_dir, tmp_path, version,
    ):
        manifest_path = _copy_bundle(bundle_dir, tmp_path / "bundle")
        members = ShardManifest.load(manifest_path).members(1)
        sub = db.subset([int(i) for i in members])
        path = manifest_path.parent / "shard-001.npz"
        if version == 5:
            _as_format_5(path, sub)
        assert _stored_version(path) == version
        with np.load(io.BytesIO(read_checksummed(path))) as data:
            assert version == 5 or sorted(data.files) == [
                "coords", "format_version", "vantage_indices",
            ]
        for open_shard in (
            lambda: load_index(path, sub, StarDistance()),
            lambda: repro.open_index(path, sub),
            lambda: repro.open_index(path, sub, mutable=True),
        ):
            with pytest.raises(IndexFormatError, match="shard artifact") as info:
                open_shard()
            assert str(manifest_path) in str(info.value)


def test_thresholds_are_accepted_and_ignored(db, tmp_path):
    """``thresholds=`` changes no stored byte but ``build_seconds``, on a
    single index and on a bundle."""
    from repro.index.pivec import ThresholdLadder
    from tests.test_fanout import bundle_fingerprint

    ladder = ThresholdLadder([2.0, 4.0, 8.0])
    arrays = []
    for name, extra in (("plain", {}), ("laddered", {"thresholds": ladder})):
        path = tmp_path / f"{name}.npz"
        save_index(
            NBIndex.build(db, StarDistance(), seed=7, **BUILD, **extra), path
        )
        with np.load(io.BytesIO(read_checksummed(path))) as data:
            arrays.append({
                key: data[key].tobytes()
                for key in set(data.files) - {"build_seconds"}
            })
    assert arrays[0] == arrays[1]
    assert bundle_fingerprint(build_shards(
        db, StarDistance(), num_shards=3, out_dir=tmp_path / "plain",
        seed=7, **BUILD,
    )) == bundle_fingerprint(build_shards(
        db, StarDistance(), num_shards=3, out_dir=tmp_path / "laddered",
        seed=7, thresholds=ladder, **BUILD,
    ))


def _tampered_bundle(db, bundle_dir, tmp_path, *, crc: bool):
    """A copy of ``bundle_dir`` whose shard 1 stores its first member's
    first coordinate 0.5 off, in an intact container; ``crc`` records the
    new artifact's crc32 in the manifest."""
    for name in os.listdir(bundle_dir):
        (tmp_path / name).write_bytes((bundle_dir / name).read_bytes())
    manifest = ShardManifest.load(tmp_path / "manifest.json")
    members = manifest.members(1)
    coords = _load(bundle_dir, db).frame.coords[members]
    coords[0, 0] += 0.5
    save_frame_rows(tmp_path / "shard-001.npz", manifest.frame, coords)
    if crc:
        entries = list(manifest.shards)
        entries[1] = dataclasses.replace(
            entries[1],
            checksum=zlib.crc32((tmp_path / "shard-001.npz").read_bytes()),
        )
        manifest = dataclasses.replace(manifest, shards=tuple(entries))
        manifest.save(tmp_path / "manifest.json")
    return tmp_path / "manifest.json"


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
        seed=seed, assignments=partition.assignments,
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
        assert len(frame) == 6 and list(frame) == sharded.frame.vantage_indices
        star = StarDistance()
        want = np.array([[star(db[v], db[g]) for v in frame] for g in range(len(db))])
        assert np.array_equal(sharded.frame.coords, want)
        assert np.array_equal(sharded.index.embedding.coords, want)
        manifest = sharded.manifest
        for shard_id in range(manifest.num_shards):
            vantage, coords = manifest.read_embedding(shard_id, bundle_dir)
            assert vantage == list(frame)
            assert np.array_equal(coords, want[manifest.members(shard_id)])
        # Most vantage graphs of a shard live elsewhere, and nothing about
        # a graph is ever measured again at query time.
        assert any(manifest.assignments[v] != 0 for v in frame)
        result = sharded.query(quartile_relevance(db), 6.0, 5)
        assert result.stats.coordinator["foreign_embeds"] == 0
        assert verify_deployment(bundle_dir)["ok"]

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
            )
        star, coords = StarDistance(), sharded.frame.coords
        shard_of = sharded.manifest.assignments
        home = shard_of[sharded.frame.vantage_indices]
        checked = 0
        for g in range(len(database)):
            foreign = np.flatnonzero(home != shard_of[g])
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
        row = VantageEmbedding.row

        def spying(self, gid, engine):
            before = engine.evaluations
            out = row(self, gid, engine)
            if engine.evaluations > before:
                embeds.append((gid, engine.evaluations - before))
            return out

        monkeypatch.setattr(VantageEmbedding, "row", spying)

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
        frame = list(mutable.frame.vantage_indices)
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
        untouched = ShardManifest.load(manifest_path).shards[1]
        raw = (manifest_path.parent / untouched.path).read_bytes()
        report = mutable.compact()
        assert report["rebuilt_shards"] == [0] and report["reused_shards"] == 1
        assert mutable.base.reused_shards == 1
        assert ShardManifest.load(manifest_path).shards[1] == untouched
        assert (manifest_path.parent / untouched.path).read_bytes() == raw
        assert not mutable.frame.extra  # stored now: no second copy kept
        # Rows the queries computed were handed over, the rest measured now:
        # every absorbed graph exactly once, ≤ |V| distances each.
        assert sorted(gid for gid, _ in embeds) == new_ids
        assert all(calls <= len(frame) for _, calls in embeds)
        assert list(mutable.frame.vantage_indices) == frame
        assert list(ShardManifest.load(manifest_path).frame) == frame
        assert verify_deployment(manifest_path)["ok"]
        assert check(mutable) == 0
        mutable.close()
        # Restart: the rows now come from the rebuilt shard's artifact.
        reopened = open_mutable()
        assert list(reopened.frame.vantage_indices) == frame
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

    def test_full_reuse_on_unchanged_bundle(
        self, db, bundle_dir, monkeypatch,
    ):
        first = _load(bundle_dir, db)
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(
            Path, "read_bytes",
            lambda self: reads.append(self.name) or read_bytes(self),
        )
        second = _load(bundle_dir, db, previous=first)
        assert second.reused_shards == 3
        assert not reads  # no artifact read, none checked again
        assert second.frame is first.frame

    def test_partial_reuse_when_one_shard_changes(self, db, bundle_dir, tmp_path):
        for name in os.listdir(bundle_dir):
            (tmp_path / name).write_bytes((bundle_dir / name).read_bytes())
        first = _load(tmp_path, db)
        # Rewrite exactly one shard with *different* bytes (the same frame
        # rows, written as format 5 wrote them) and point the manifest at
        # its new checksum: only that shard may reload, and answers must
        # not move.
        manifest = ShardManifest.load(tmp_path / "manifest.json")
        _as_format_5(tmp_path / "shard-000.npz", db.subset(
            [int(i) for i in manifest.members(0)]
        ))
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
            assert "tree_nodes" not in stats["index"]
            reloaded = service.call(QueryRequest(
                id=2, op="reload", path=str(bundle_dir / "manifest.json"),
            ))
            assert reloaded["ok"], reloaded
            assert service.manager.index.reused_shards == 3

    def test_off_ladder_theta_is_answered_by_the_service(
        self, db, single_index, bundle_dir
    ):
        sharded = repro.open_index(bundle_dir / "manifest.json", db, shards=True)
        with QueryService(sharded, config=ServiceConfig()) as service:
            response = service.call(
                QueryRequest(id=3, op="query", theta=1e6, k=3)
            )
            assert response["ok"], response
            want = single_index.query(quartile_relevance(db), 1e6, 3)
            assert response["result"]["answer"] == want.answer
            assert service.journal.stats()["crashes"] == 0

    def test_load_shards_facade(self, db, bundle_dir):
        sharded = repro.open_index(bundle_dir / "manifest.json", db, shards=True)
        assert isinstance(sharded, ShardedIndex)
        assert sharded.num_shards == 3
        assert sharded.stats()["num_shards"] == 3
