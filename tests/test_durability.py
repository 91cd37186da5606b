"""Durability: checkpointing, backup/restore, scrubbing, crash recovery.

The acceptance property for `repro.durability` is the crash-consistency
invariant ``base + journal = database`` held across every commit point:
a checkpoint interrupted anywhere reopens either at the old generation
(with the full journal) or the new one (journal folded), never a mix;
a backup verifies every checksum before a restore writes a byte; the
scrubber detects every injected single-bit flip and rebuilds a corrupt
shard from the serving index's frame without stopping queries.  Torn
writes, partial records and duplicated tails at every byte boundary
either reopen bit-identical to the surviving prefix or raise a typed
error — never a silent wrong answer.
"""

from __future__ import annotations

import json
import time
from collections import Counter
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.delta import JournalError, MutationJournal
from repro.delta.journal import scan_journal
from repro.durability import (
    BackupError,
    CheckpointError,
    RestoreError,
    ScrubError,
    Scrubber,
    checkpoint_offline,
    create_backup,
    restore_backup,
    verify_backup,
    verify_deployment,
)
from repro.ged import StarDistance
from repro.graphs.io import load_database, save_database
from repro.index.nbindex import NBIndex
from repro.index.persistence import save_index
from repro.replica import ReplicatedIndex
from repro.resilience import CorruptIndexError, faults
from repro.service.crashlog import CrashJournal
from repro.shard.build import build_shards
from repro.shard.errors import ManifestError
from repro.shard.manifest import ShardManifest
from tests.conftest import random_connected_graph, random_database, rungs

DIST = StarDistance()


def _deployment(tmp: Path, num_shards: int, *, size=24, base=18):
    """A saved database file + index artifact over its first ``base``
    graphs; the remaining rows stay available as insert material."""
    db = random_database(seed=71, size=size, num_features=3)
    live = db.subset(range(base))
    dbp = tmp / "base.jsonl"
    save_database(live, dbp)
    if num_shards == 1:
        index = NBIndex.build(
            live, DIST, num_vantage_points=4,
            seed=np.random.default_rng(0),
        )
        artifact = tmp / "index.npz"
        save_index(index, artifact)
    else:
        artifact = build_shards(
            live, DIST, num_shards=num_shards, out_dir=tmp / "bundle",
            num_vantage_points=4, seed=0,
        )
    return db, dbp, artifact


def _open(tmp: Path, dbp, artifact):
    return repro.open_index(
        artifact, dbp, mutable=True, journal=tmp / "m.journal",
    )


def _mutate(mutable, db, inserts=2, delete=2):
    for g in range(18, 18 + inserts):
        mutable.insert(db[g], db.features[g])
    if delete is not None:
        mutable.delete(delete)


def _state(mutable):
    """The logical database state a reopen must reproduce exactly, queried
    at the second rung of a slope-proportional spread over the base."""
    theta = rungs(mutable.database.graphs[:18], DIST)[1]
    result = mutable.query(lambda g: True, theta, 4)
    return (
        len(mutable.database),
        frozenset(mutable.database.deleted),
        result.answer, result.gains, result.covered, result.num_relevant,
    )


def _flip(path: Path, at_fraction=0.5):
    raw = bytearray(path.read_bytes())
    raw[int(len(raw) * at_fraction)] ^= 0x01
    path.write_bytes(bytes(raw))


# ---------------------------------------------------------------------------
# Checkpoint
# ---------------------------------------------------------------------------
class TestCheckpoint:
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_folds_journal_and_reopens_identical(self, tmp_path, num_shards):
        db, dbp, artifact = _deployment(tmp_path, num_shards)
        mutable = _open(tmp_path, dbp, artifact)
        _mutate(mutable, db, inserts=3)
        before = _state(mutable)
        report = mutable.checkpoint()
        assert report["generation"] == 1
        assert report["folded_records"] == 4
        assert report["carried_records"] == 0
        # The live journal shrank to zero mutation records...
        assert mutable.journal.num_records == 0
        assert (tmp_path / report["base"]).exists()
        # ...and the serving state did not move.
        assert _state(mutable) == before
        mutable.close()
        # Reopen resolves the generation-1 base pinned in the header.
        reopened = _open(tmp_path, dbp, artifact)
        assert reopened.journal.generation == 1
        assert reopened.journal.num_records == 0
        assert _state(reopened) == before
        assert reopened.stats()["delta"]["journal_generation"] == 1
        reopened.close()

    def test_zero_record_checkpoint_is_valid(self, tmp_path):
        db, dbp, artifact = _deployment(tmp_path, 1)
        mutable = _open(tmp_path, dbp, artifact)
        before = _state(mutable)
        report = mutable.checkpoint()
        assert report["folded_records"] == 0
        mutable.close()
        reopened = _open(tmp_path, dbp, artifact)
        assert reopened.journal.generation == 1
        assert _state(reopened) == before
        reopened.close()

    def test_second_generation_drops_old_base(self, tmp_path):
        db, dbp, artifact = _deployment(tmp_path, 1)
        mutable = _open(tmp_path, dbp, artifact)
        _mutate(mutable, db, inserts=1)
        first = mutable.checkpoint()
        mutable.insert(db[20], db.features[20])
        mutable.delete(5)
        before = _state(mutable)
        second = mutable.checkpoint()
        assert second["generation"] == 2
        assert second["folded_records"] == 2
        assert not (tmp_path / first["base"]).exists()
        assert (tmp_path / second["base"]).exists()
        mutable.close()
        reopened = _open(tmp_path, dbp, artifact)
        assert reopened.journal.generation == 2
        assert _state(reopened) == before
        reopened.close()

    def test_mutations_after_checkpoint_replay_onto_new_base(self, tmp_path):
        db, dbp, artifact = _deployment(tmp_path, 1)
        mutable = _open(tmp_path, dbp, artifact)
        _mutate(mutable, db, inserts=2)
        mutable.checkpoint()
        mutable.insert(db[21], db.features[21])
        mutable.delete(7)
        assert mutable.journal.num_records == 2
        before = _state(mutable)
        mutable.close()
        reopened = _open(tmp_path, dbp, artifact)
        assert reopened.journal.num_records == 2
        assert _state(reopened) == before
        reopened.close()

    @pytest.mark.parametrize("site, committed", [
        ("durability.checkpoint.base", False),
        ("durability.checkpoint.journal", False),
        ("durability.checkpoint.commit", True),
    ])
    def test_crash_reopens_consistent(self, tmp_path, site, committed):
        db, dbp, artifact = _deployment(tmp_path, 4)
        mutable = _open(tmp_path, dbp, artifact)
        _mutate(mutable, db, inserts=2)
        before = _state(mutable)
        faults.install(faults.FaultPlan(kill_site=site))
        try:
            with pytest.raises(CheckpointError) as excinfo:
                mutable.checkpoint()
        finally:
            faults.clear()
        assert isinstance(excinfo.value.__cause__, faults.SimulatedCrash)
        mutable.close()
        # Whatever the crash point, base + journal = database holds.
        reopened = _open(tmp_path, dbp, artifact)
        if committed:  # crash after the rename: the new generation won
            assert reopened.journal.generation == 1
            assert reopened.journal.num_records == 0
        else:  # crash before the rename: the old generation survives
            assert reopened.journal.generation == 0
            assert reopened.journal.num_records == 3
        assert _state(reopened) == before
        reopened.close()

    def test_checkpoint_offline(self, tmp_path):
        db, dbp, artifact = _deployment(tmp_path, 1)
        mutable = _open(tmp_path, dbp, artifact)
        _mutate(mutable, db, inserts=2)
        before = _state(mutable)
        mutable.close()
        report = checkpoint_offline(dbp, tmp_path / "m.journal")
        assert report["generation"] == 1
        assert report["folded_records"] == 3
        reopened = _open(tmp_path, dbp, artifact)
        assert reopened.journal.generation == 1
        assert reopened.journal.num_records == 0
        assert _state(reopened) == before
        reopened.close()

    def test_checkpointed_journal_refuses_loaded_database(self, tmp_path):
        db, dbp, artifact = _deployment(tmp_path, 1)
        mutable = _open(tmp_path, dbp, artifact)
        mutable.checkpoint()
        mutable.close()
        with pytest.raises(JournalError, match="pass database as a path"):
            repro.open_index(
                artifact, load_database(dbp), mutable=True,
                journal=tmp_path / "m.journal",
            )

# ---------------------------------------------------------------------------
# Journal recovery (torn writes, partial records, duplicated tails)
# ---------------------------------------------------------------------------
class TestJournalRecovery:
    def _journal_with(self, tmp_path, n_deletes: int) -> Path:
        path = tmp_path / "j"
        journal = MutationJournal(path)
        for gid in range(n_deletes):
            journal.append_delete(gid)
        journal.close()
        return path

    def test_torn_tail_truncation_is_byte_exact(self, tmp_path):
        path = self._journal_with(tmp_path, 3)
        pristine = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(b'{"record": {"op": "delete", "gid"')
        with pytest.warns(RuntimeWarning, match="torn final journal"):
            reopened = MutationJournal(path)
        assert reopened.num_records == 3
        reopened.close()
        assert path.read_bytes() == pristine

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_truncation_at_any_byte_recovers_prefix_or_types(
        self, tmp_path_factory, data
    ):
        """Cut the journal at an arbitrary byte: reopen must land
        bit-identically on the surviving record prefix, or raise a typed
        JournalError — never a silent wrong answer."""
        tmp = tmp_path_factory.mktemp("torn")
        n = data.draw(st.integers(1, 4), label="records")
        path = self._journal_with(tmp, n)
        pristine = path.read_bytes()
        boundaries = [0]
        for line in pristine.splitlines(keepends=True):
            boundaries.append(boundaries[-1] + len(line))
        cut = data.draw(st.integers(0, len(pristine)), label="cut")
        with path.open("r+b") as handle:
            handle.truncate(cut)
        complete_lines = sum(1 for b in boundaries[1:] if b <= cut)
        keep = max(b for b in boundaries if b <= cut)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if complete_lines == 0:  # the header itself is gone: typed
                with pytest.raises(JournalError):
                    MutationJournal(path)
            else:
                reopened = MutationJournal(path)
                assert reopened.num_records == complete_lines - 1
                reopened.close()
                assert path.read_bytes() == pristine[:keep]

    def test_bit_flip_in_nonfinal_record_is_corruption(self, tmp_path):
        path = self._journal_with(tmp_path, 3)
        lines = path.read_bytes().splitlines(keepends=True)
        flipped = bytearray(lines[2])
        flipped[10] ^= 0x01
        lines[2] = bytes(flipped)
        path.write_bytes(b"".join(lines))
        report = scan_journal(path)
        assert report["problems"]
        with pytest.raises(JournalError, match="corrupt, not torn"):
            MutationJournal(path)

    def test_duplicated_insert_tail_is_detected_on_replay(self, tmp_path):
        db = random_database(seed=31, size=6, num_features=3)
        save_database(db, tmp_path / "db.jsonl")
        rng = np.random.default_rng(5)
        path = tmp_path / "j"
        journal = MutationJournal(path)
        journal.append_insert(
            6, random_connected_graph(rng, 4), rng.random(3)
        )
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines) + lines[-1])  # duplicated tail
        reopened = MutationJournal(path)  # both copies pass their crc...
        assert reopened.num_records == 2
        with pytest.raises(JournalError, match="disagree"):
            reopened.replay_into(load_database(tmp_path / "db.jsonl"))
        reopened.close()

    def test_duplicated_delete_tail_is_idempotent(self, tmp_path):
        db = random_database(seed=32, size=6, num_features=3)
        save_database(db, tmp_path / "db.jsonl")
        path = self._journal_with(tmp_path, 1)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines) + lines[-1])
        reopened = MutationJournal(path)
        replayed = load_database(tmp_path / "db.jsonl")
        counts = reopened.replay_into(replayed)
        assert counts["deletes"] == 2  # replayed twice, same state
        assert set(replayed.deleted) == {0}
        reopened.close()

    def test_scan_journal_reports_without_mutating(self, tmp_path):
        path = self._journal_with(tmp_path, 2)
        with path.open("ab") as handle:
            handle.write(b'{"torn')
        before = path.read_bytes()
        report = scan_journal(path)
        assert report["records"] == 2
        assert report["torn_tail"] is True
        assert report["problems"] == []
        assert path.read_bytes() == before  # audit never truncates


# ---------------------------------------------------------------------------
# Backup / restore
# ---------------------------------------------------------------------------
class TestBackupRestore:
    def _backed_up(self, tmp_path, *, num_shards=4):
        db, dbp, artifact = _deployment(tmp_path, num_shards)
        mutable = _open(tmp_path, dbp, artifact)
        _mutate(mutable, db, inserts=2)
        state = _state(mutable)
        report = create_backup(
            tmp_path / "bk", database=dbp, journal=tmp_path / "m.journal",
            latch=mutable.latch,
        )
        mutable.close()
        return db, dbp, artifact, state, report

    def test_roundtrip_restores_byte_identical_deployment(self, tmp_path):
        db, dbp, artifact, state, report = self._backed_up(tmp_path)
        assert report["roles"] == ["database", "journal"]
        assert verify_backup(tmp_path / "bk")["ok"]
        restore_backup(tmp_path / "bk", tmp_path / "restored")
        for name in ("base.jsonl", "m.journal"):
            assert (tmp_path / "restored" / name).read_bytes() == (
                tmp_path / "bk" / name
            ).read_bytes()
        # Rebuild the index over the restored base: the deployment opens
        # and answers identically.
        restored_base = tmp_path / "restored" / "base.jsonl"
        manifest_path = build_shards(
            load_database(restored_base), DIST, num_shards=4,
            out_dir=tmp_path / "restored" / "bundle",
            num_vantage_points=4, seed=0,
        )
        restored = repro.open_index(
            manifest_path, restored_base,
            mutable=True, journal=tmp_path / "restored" / "m.journal",
        )
        assert _state(restored) == state
        restored.close()

    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_a_backup_holds_the_database_or_journal_and_base(
        self, tmp_path, checkpointed,
    ):
        db, dbp, artifact = _deployment(tmp_path, 4)
        create_backup(tmp_path / "db-only", database=dbp)
        assert _archived(tmp_path / "db-only") == {"base.jsonl": "database"}
        mutable = _open(tmp_path, dbp, artifact)
        _mutate(mutable, db, inserts=1)
        base = mutable.checkpoint()["base"] if checkpointed else "base.jsonl"
        create_backup(
            tmp_path / "bk", database=dbp, journal=tmp_path / "m.journal",
            latch=mutable.latch,
        )
        mutable.close()
        # No index artifact travels: not the manifest, not a shard.
        assert _archived(tmp_path / "bk") == {
            base: "database", "m.journal": "journal",
        }
        with pytest.raises(TypeError):
            create_backup(tmp_path / "more", database=dbp, shards=artifact)

    def test_backup_after_checkpoint_carries_pinned_base(self, tmp_path):
        db, dbp, artifact = _deployment(tmp_path, 1)
        mutable = _open(tmp_path, dbp, artifact)
        _mutate(mutable, db, inserts=1)
        report = mutable.checkpoint()
        state = _state(mutable)
        create_backup(
            tmp_path / "bk", journal=tmp_path / "m.journal",
            latch=mutable.latch,
        )
        mutable.close()
        # The generation base travels instead of the original database.
        names = {p.name for p in (tmp_path / "bk").iterdir()}
        assert report["base"] in names
        assert "base.jsonl" not in names
        restore_backup(tmp_path / "bk", tmp_path / "restored")
        # The index is rebuilt over the pinned base, tombstones and all.
        save_index(
            NBIndex.build(
                load_database(tmp_path / "restored" / report["base"]), DIST,
                num_vantage_points=4,
                seed=np.random.default_rng(0),
            ),
            tmp_path / "restored" / "index.npz",
        )
        restored = repro.open_index(
            tmp_path / "restored" / "index.npz",
            tmp_path / "restored" / "nonexistent.jsonl",  # base is pinned
            mutable=True, journal=tmp_path / "restored" / "m.journal",
        )
        assert _state(restored) == state
        restored.close()

    def test_bit_flip_fails_verify_and_blocks_restore(self, tmp_path):
        self._backed_up(tmp_path)
        victim = tmp_path / "bk" / "base.jsonl"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 3] ^= 0x04
        victim.write_bytes(bytes(raw))
        report = verify_backup(tmp_path / "bk")
        assert not report["ok"]
        assert any("crc32 mismatch" in p for p in report["problems"])
        with pytest.raises(RestoreError, match="verification"):
            restore_backup(tmp_path / "bk", tmp_path / "restored")
        assert not (tmp_path / "restored").exists()

    def test_existing_destinations_and_targets_are_refused(self, tmp_path):
        db, dbp, artifact, state, _ = self._backed_up(tmp_path, num_shards=1)
        with pytest.raises(BackupError, match="already exists"):
            create_backup(tmp_path / "bk", database=dbp)
        (tmp_path / "occupied").mkdir()
        with pytest.raises(RestoreError, match="force"):
            restore_backup(tmp_path / "bk", tmp_path / "occupied")
        report = restore_backup(
            tmp_path / "bk", tmp_path / "occupied", force=True
        )
        assert report["forced"] is True
        assert (tmp_path / "occupied" / "m.journal").exists()

    def test_force_into_a_fresh_destination_is_not_reported_forced(
        self, tmp_path,
    ):
        self._backed_up(tmp_path, num_shards=1)
        report = restore_backup(tmp_path / "bk", tmp_path / "fresh", force=True)
        assert report["forced"] is False  # a staged rename overwrote nothing

    def test_gen0_journal_without_database_is_refused(self, tmp_path):
        db, dbp, artifact = _deployment(tmp_path, 1)
        mutable = _open(tmp_path, dbp, artifact)
        mutable.close()
        with pytest.raises(BackupError, match="generation-0"):
            create_backup(tmp_path / "bk", journal=tmp_path / "m.journal")

    @pytest.mark.parametrize("site", [
        "durability.backup.copy", "durability.backup.manifest",
    ])
    def test_backup_crash_leaves_no_partial_archive(self, tmp_path, site):
        db, dbp, artifact = _deployment(tmp_path, 1)
        faults.install(faults.FaultPlan(kill_site=site))
        try:
            with pytest.raises(faults.SimulatedCrash):
                create_backup(tmp_path / "bk", database=dbp)
        finally:
            faults.clear()
        assert not (tmp_path / "bk").exists()
        assert not list(tmp_path.glob("bk.tmp-*"))  # staging cleaned up

    def test_restore_crash_leaves_no_partial_destination(self, tmp_path):
        db, dbp, artifact, state, _ = self._backed_up(tmp_path, num_shards=1)
        faults.install(
            faults.FaultPlan(kill_site="durability.restore.install")
        )
        try:
            with pytest.raises(faults.SimulatedCrash):
                restore_backup(tmp_path / "bk", tmp_path / "restored")
        finally:
            faults.clear()
        assert not (tmp_path / "restored").exists()

    def test_verify_deployment_dispatch(self, tmp_path):
        db, dbp, artifact, state, _ = self._backed_up(tmp_path)
        assert verify_deployment(tmp_path / "bk")["ok"]
        assert verify_deployment(artifact)["ok"]  # manifest.json
        assert verify_deployment(artifact.parent)["ok"]  # bundle dir
        assert verify_deployment(dbp)["ok"]  # database JSONL
        assert verify_deployment(tmp_path / "m.journal")["ok"]
        assert not verify_deployment(tmp_path / "absent")["ok"]
        shard = next(artifact.parent.glob("*.npz"))
        assert verify_deployment(shard)["ok"]
        raw = bytearray(shard.read_bytes())
        raw[len(raw) // 2] ^= 0x10
        shard.write_bytes(bytes(raw))
        assert not verify_deployment(shard)["ok"]
        assert not verify_deployment(artifact.parent)["ok"]


def _archived(backup_dir: Path) -> dict:
    """``{name: role}`` of every file a backup's archive manifest lists."""
    document = json.loads((backup_dir / "backup.json").read_text())
    files = {e["name"]: e["role"] for e in document["backup"]["files"]}
    assert {p.name for p in backup_dir.iterdir()} == {*files, "backup.json"}
    return files


# ---------------------------------------------------------------------------
# Scrubber
# ---------------------------------------------------------------------------
class TestScrubber:
    def test_clean_deployment_scrubs_clean(self, tmp_path):
        db, dbp, artifact = _deployment(tmp_path, 4)
        mutable = _open(tmp_path, dbp, artifact)
        _mutate(mutable, db, inserts=2)
        scrubber = Scrubber(mutable, database_path=dbp)
        report = scrubber.scrub_once(raise_errors=True)
        # journal + database + manifest + 4 shards
        assert report["files"] == 7
        assert report["records"] == 3
        assert report["corruptions"] == []
        assert scrubber.status()["cycles"] == 1
        mutable.close()

    def test_detects_and_heals_shard_flip_from_loaded_object(self, tmp_path):
        db, dbp, artifact = _deployment(tmp_path, 4)
        mutable = _open(tmp_path, dbp, artifact)
        _mutate(mutable, db, inserts=2)
        before = _state(mutable)
        victim = sorted(artifact.parent.glob("*.npz"))[1]
        _flip(victim)
        scrubber = Scrubber(mutable, database_path=dbp)
        report = scrubber.scrub_once(raise_errors=True)
        assert len(report["corruptions"]) == 1
        assert len(report["healed"]) == 1
        # Healed for real: the bundle re-verifies and queries never moved.
        assert verify_deployment(artifact.parent)["ok"]
        assert scrubber.scrub_once(raise_errors=True)["corruptions"] == []
        assert _state(mutable) == before
        mutable.close()
        reopened = _open(tmp_path, dbp, artifact)
        assert _state(reopened) == before
        reopened.close()

    def test_every_single_bit_flip_in_shard_is_detected(self, tmp_path):
        """Exhaustive over bit positions in a sampled stride: crc32 (and
        the manifest's self-check) catch 100% of single-bit flips."""
        db, dbp, artifact = _deployment(tmp_path, 2)
        shard = sorted(artifact.parent.glob("*.npz"))[0]
        pristine = shard.read_bytes()
        entry = [
            e for e in ShardManifest.load(artifact).shards
            if (artifact.parent / e.path) == shard
        ][0]
        n = len(pristine)
        for offset in range(0, n, max(1, n // 64)):
            for bit in (0x01, 0x80):
                raw = bytearray(pristine)
                raw[offset] ^= bit
                assert zlib.crc32(bytes(raw)) != entry.checksum, (
                    f"flip at byte {offset} bit {bit:#x} went undetected"
                )

    def test_torn_tail_is_counted_not_flagged(self, tmp_path):
        db, dbp, artifact = _deployment(tmp_path, 1)
        mutable = _open(tmp_path, dbp, artifact)
        _mutate(mutable, db, inserts=1)
        with (tmp_path / "m.journal").open("ab") as handle:
            handle.write(b'{"record": {"op": "del')
        scrubber = Scrubber(mutable, database_path=dbp)
        report = scrubber.scrub_once(raise_errors=True)
        assert report["corruptions"] == []
        assert scrubber.status()["torn_tails"] == 1
        mutable.close()

    def test_heals_replicated_shard_by_rebuild(self, tmp_path):
        from repro.graphs import quartile_relevance

        database = random_database(seed=19, size=24, num_features=3)
        artifact = build_shards(
            database, DIST, num_shards=2, out_dir=tmp_path / "bundle",
            num_vantage_points=4, seed=0,
        )
        victim = artifact.parent / "shard-000.npz"
        with ReplicatedIndex.open(
            artifact, database, DIST, replicas=1, heartbeat_s=0.1,
        ) as rep:
            fn = quartile_relevance(database, quantile=0.5)
            before = rep.query(fn, 8.0, 3)
            _flip(victim)
            report = Scrubber(rep).scrub_once(raise_errors=True)
            assert report["healed"] == [
                f"{victim}: rebuilt from the frame and the manifest"
            ]
            # The rebuilt artifact's crc32 is committed, on disk and in
            # the serving manifest.
            entry = ShardManifest.load(artifact).shards[0]
            assert entry.checksum == zlib.crc32(victim.read_bytes())
            assert rep.manifest.shards[0] == entry
            # Workers read no artifact: a restarted one serves the
            # frame the cluster read at open and answers identically.
            handle = rep.supervisor.handles[0]
            generation = handle.generation
            handle.proc.kill()
            deadline = time.monotonic() + 10.0
            while not (handle.alive and handle.generation > generation):
                assert time.monotonic() < deadline, "worker never restarted"
                time.sleep(0.05)
            after = rep.query(fn, 8.0, 3)
            assert (after.answer, after.gains) == (before.answer, before.gains)

    @pytest.mark.parametrize("compacted", [False, True])
    def test_a_rebuilt_shard_is_the_serving_shard(self, tmp_path, compacted):
        """Build, compaction and heal all write a shard through
        ``write_shard`` from the frame rows, so the heal writes back the
        very shard being served."""
        from repro.index.persistence import stored_embedding

        db, dbp, artifact = _deployment(tmp_path, 4)
        mutable = _open(tmp_path, dbp, artifact)
        if compacted:
            _mutate(mutable, db, inserts=4, delete=None)
            assert mutable.compact()["rebuilt_shards"]
        before = _state(mutable)
        base = mutable.base
        paths = [
            base.manifest.artifact_path(s, artifact.parent) for s in range(4)
        ]
        for path in paths:
            _flip(path)
        report = Scrubber(mutable, database_path=dbp).scrub_once(
            raise_errors=True
        )
        assert len(report["healed"]) == 4
        for shard_id, path in enumerate(paths):
            members = base.manifest.members(shard_id)
            vantage, coords = stored_embedding(path)
            # The serving frame's rows of the shard's members, as written.
            assert np.array_equal(coords, base.frame.coords[members])
            assert vantage == base.frame.vantage_indices
        assert _state(mutable) == before
        mutable.close()

    def test_background_thread_lifecycle(self, tmp_path):
        db, dbp, artifact = _deployment(tmp_path, 1)
        mutable = _open(tmp_path, dbp, artifact)
        scrubber = Scrubber(mutable, interval_s=0.02, database_path=dbp)
        scrubber.start()
        assert scrubber.running
        deadline = time.monotonic() + 5.0
        while (
            scrubber.status()["cycles"] < 2
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        scrubber.stop()
        assert not scrubber.running
        assert scrubber.status()["cycles"] >= 2
        assert scrubber.status()["corruptions"] == 0
        mutable.close()


# ---------------------------------------------------------------------------
# Every reader agrees on every corruption
# ---------------------------------------------------------------------------
#: What a load raises for each kind of corruption (docs/recovery.md).  The
#: journal and its pinned base are the only copy of the database: an open
#: and a backup refuse them, ``repro verify`` reports them, the scrubber
#: escalates.  Index artifacts are derived: an open and ``repro verify``
#: refuse / report them, the scrubber rebuilds them, a backup holds none.
CORRUPTIONS = {
    "journal-record": (JournalError, "checksum"),
    "pinned-base": (JournalError, "crc32 pinned"),
    "manifest": (ManifestError, "shard manifest"),
    "shard": (CorruptIndexError, "crc32 mismatch"),
    "off-frame-shard": (CorruptIndexError, "frame"),
    "single-npz": (CorruptIndexError, "checksum"),
}
ESCALATED = {"journal-record", "pinned-base"}


def _corrupted(tmp_path: Path, kind: str):
    """A checkpointed, journaled deployment served by a live mutable
    index, then one file corrupted as ``kind`` says.  Returns the serving
    index, its pre-corruption state, what ``repro verify`` is pointed at
    and the database path and artifact to reopen with."""
    from tests.test_shard import _off_frame_bundle

    db, dbp, artifact = _deployment(tmp_path, 1 if kind == "single-npz" else 2)
    mutable = _open(tmp_path, dbp, artifact)
    mutable.insert(db[18], db.features[18])
    base = tmp_path / mutable.checkpoint()["base"]
    _mutate(mutable, db, inserts=2)  # three records after the header
    before = _state(mutable)
    journal = tmp_path / "m.journal"
    target = journal if kind in ESCALATED else artifact
    if kind == "journal-record":
        lines = journal.read_bytes().splitlines(keepends=True)
        flipped = bytearray(lines[1])  # a mutation record, not the last
        flipped[12] ^= 0x01
        lines[1] = bytes(flipped)
        journal.write_bytes(b"".join(lines))
    elif kind == "pinned-base":
        _flip(base)
    elif kind == "off-frame-shard":
        # A checksum-valid artifact in other vantage graphs, its crc32 in
        # the manifest on disk and in the serving one.
        _off_frame_bundle(db, artifact.parent, artifact.parent)
        mutable.base.manifest = ShardManifest.load(artifact)
    else:
        _flip(
            artifact.parent / "shard-001.npz" if kind == "shard"
            else artifact,
            at_fraction=0.3 if kind == "manifest" else 0.5,
        )
    return mutable, before, target, dbp, artifact


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
class TestEveryReaderAgrees:
    def test_open(self, tmp_path, kind):
        mutable, _, _, dbp, artifact = _corrupted(tmp_path, kind)
        mutable.close()
        error, match = CORRUPTIONS[kind]
        with pytest.raises(error, match=match):
            _open(tmp_path, dbp, artifact)

    def test_verify(self, tmp_path, kind):
        mutable, _, target, _, _ = _corrupted(tmp_path, kind)
        mutable.close()
        report = verify_deployment(target)
        assert not report["ok"]
        assert any(CORRUPTIONS[kind][1] in p for p in report["problems"])

    def test_scrub(self, tmp_path, kind):
        mutable, before, _, dbp, artifact = _corrupted(tmp_path, kind)
        scrubber = Scrubber(mutable, database_path=dbp)
        report = scrubber.scrub_once()
        assert len(report["corruptions"]) == 1
        assert CORRUPTIONS[kind][1] in report["corruptions"][0]
        if kind in ESCALATED:
            assert report["healed"] == []
            assert len(report["escalations"]) == 1
            assert "restore from backup" in report["escalations"][0]
            with pytest.raises(ScrubError, match="unhealable"):
                scrubber.scrub_once(raise_errors=True)
            mutable.close()
            return
        assert report["escalations"] == [] and len(report["healed"]) == 1
        # Healed for real: it re-verifies, scrubs clean, queries never
        # moved, and a reopen loads the rewritten file.
        assert verify_deployment(artifact)["ok"]
        assert scrubber.scrub_once(raise_errors=True)["corruptions"] == []
        assert _state(mutable) == before
        mutable.close()
        reopened = _open(tmp_path, dbp, artifact)
        assert _state(reopened) == before
        reopened.close()

    def test_backup(self, tmp_path, kind):
        mutable, _, _, dbp, _ = _corrupted(tmp_path, kind)
        out = tmp_path / "bk"
        if kind in ESCALATED:
            with pytest.raises(BackupError, match=CORRUPTIONS[kind][1]):
                create_backup(
                    out, database=dbp, journal=tmp_path / "m.journal",
                    latch=mutable.latch,
                )
            assert not out.exists()
        else:  # no index artifact travels in a backup
            create_backup(
                out, database=dbp, journal=tmp_path / "m.journal",
                latch=mutable.latch,
            )
            assert verify_backup(out)["ok"]
            assert set(_archived(out).values()) == {"database", "journal"}
        mutable.close()


class TestOneReadPerArtifact:
    """An index artifact is read once by each of its readers: the crc32
    check and the load (or the frame check) share the bytes."""

    @staticmethod
    def _counted(monkeypatch) -> Counter:
        reads: Counter = Counter()
        read_bytes = Path.read_bytes

        def counting(path):
            if path.suffix == ".npz":
                reads[path.name] += 1
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        return reads

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_open_verify_and_scrub(self, tmp_path, monkeypatch, num_shards):
        _, dbp, artifact = _deployment(tmp_path, num_shards)
        once = (
            {"index.npz": 1} if num_shards == 1
            else {f"shard-{s:03d}.npz": 1 for s in range(num_shards)}
        )
        reads = self._counted(monkeypatch)
        mutable = _open(tmp_path, dbp, artifact)
        assert reads == once
        reads.clear()
        assert verify_deployment(artifact)["ok"]
        assert reads == once
        reads.clear()
        report = Scrubber(mutable, database_path=dbp).scrub_once(raise_errors=True)
        assert report["corruptions"] == []
        assert reads == once
        mutable.close()


def test_a_bundle_base_counts_the_graphs_it_covers(tmp_path):
    """Inserts grow the live database, not the bundle the base serves."""
    db, dbp, artifact = _deployment(tmp_path, 2)
    mutable = _open(tmp_path, dbp, artifact)
    _mutate(mutable, db, inserts=2, delete=None)
    assert len(mutable.database) == 20
    assert mutable.base.stats()["num_graphs"] == mutable.base.manifest.num_graphs == 18
    mutable.close()


# ---------------------------------------------------------------------------
# Crash-log rotation (service satellite)
# ---------------------------------------------------------------------------
class TestCrashlogRotation:
    def _crash(self, journal, n):
        for i in range(n):
            try:
                raise ValueError(f"boom {i} " + "x" * 120)
            except ValueError as error:
                journal.record(None, error)

    def test_rotates_at_size_bound_keeping_n(self, tmp_path):
        path = tmp_path / "crash.log"
        journal = CrashJournal(path, max_bytes=2048, keep_rotated=2)
        self._crash(journal, 12)
        assert journal.rotations >= 2
        assert path.exists()
        assert Path(f"{path}.1").exists()
        assert Path(f"{path}.2").exists()
        assert not Path(f"{path}.3").exists()  # oldest dropped
        assert path.stat().st_size <= 2048
        for logfile in (path, Path(f"{path}.1"), Path(f"{path}.2")):
            for line in logfile.read_text().splitlines():
                json.loads(line)  # every surviving line is intact JSON
        assert journal.stats()["rotations"] == journal.rotations

    def test_unbounded_log_never_rotates(self, tmp_path):
        path = tmp_path / "crash.log"
        journal = CrashJournal(path, max_bytes=None)
        self._crash(journal, 8)
        assert journal.rotations == 0
        assert not Path(f"{path}.1").exists()


# ---------------------------------------------------------------------------
# Service admin ops
# ---------------------------------------------------------------------------
class TestServiceDurabilityOps:
    def test_checkpoint_backup_scrub_over_the_wire(self, tmp_path):
        from repro.service import QueryService, parse_request

        db, dbp, artifact = _deployment(tmp_path, 1)
        svc = QueryService.open(
            dbp, index_path=artifact, mutable=True,
            journal=tmp_path / "m.journal",
        )
        with svc:
            insert_line = json.dumps({
                "id": 1, "op": "insert",
                "graph": _wire_graph(db, 20), "features": [0.1, 0.2, 0.3],
            })
            response = svc.call(parse_request(insert_line))
            assert response["ok"], response
            response = svc.call(parse_request('{"id": 2, "op": "checkpoint"}'))
            assert response["ok"], response
            assert response["result"]["generation"] == 1
            assert svc.manager.index.journal.num_records == 0
            backup_line = json.dumps({
                "id": 3, "op": "backup", "path": str(tmp_path / "bk"),
            })
            response = svc.call(parse_request(backup_line))
            assert response["ok"], response
            assert verify_backup(tmp_path / "bk")["ok"]
            response = svc.call(parse_request('{"id": 4, "op": "scrub"}'))
            assert response["ok"], response
            assert response["result"]["corruptions"] == []
            response = svc.call(
                parse_request('{"id": 5, "op": "scrub_status"}')
            )
            assert response["ok"], response
            assert response["result"]["cycles"] == 1
        stats = svc.stats()
        assert stats["scrub"]["cycles"] == 1

    def test_wire_edges_must_be_triples(self, tmp_path):
        from repro.service import QueryService, parse_request

        db, dbp, artifact = _deployment(tmp_path, 1)
        svc = QueryService.open(
            dbp, index_path=artifact, mutable=True,
            journal=tmp_path / "m.journal",
        )
        with svc:
            graph = {"labels": ["C", "N", "O"], "edges": [[0, 1, "-"], [1, 2, "="]]}
            response = svc.call(parse_request(json.dumps({
                "id": 1, "op": "insert", "graph": graph,
                "features": [0.1, 0.2, 0.3],
            })))
            assert response["ok"], response
            inserted = svc.manager.index.database[response["result"]["gid"]]
            assert list(inserted.edges()) == [(0, 1, "-"), (1, 2, "=")]
            for request_id, edge in enumerate(([0, 1], [0]), start=2):
                response = svc.call(parse_request(json.dumps({
                    "id": request_id, "op": "insert",
                    "graph": {"labels": ["C", "N"], "edges": [edge]},
                    "features": [0.1, 0.2, 0.3],
                })))
                assert response["error"]["code"] == "invalid_request"
                assert "malformed 'graph' payload" in response["error"]["message"]

    def test_backup_needs_path_and_checkpoint_needs_journal(self, tmp_path):
        from repro.service import InvalidRequest, QueryService, parse_request

        with pytest.raises(InvalidRequest, match="backup needs a 'path'"):
            parse_request('{"op": "backup"}')
        db, dbp, artifact = _deployment(tmp_path, 1)
        svc = QueryService.open(dbp, index_path=artifact)
        with svc:
            response = svc.call(parse_request('{"id": 1, "op": "checkpoint"}'))
            assert not response["ok"]
            assert response["error"]["code"] == "invalid_request"


def _wire_graph(db, gid):
    from repro.graphs.io import graph_to_dict

    return graph_to_dict(db[gid])
