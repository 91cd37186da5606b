"""Background scrubber: continuous re-verification of cold artifacts.

Checksums only help if someone reads them.  The scrubber walks a live
deployment's on-disk artifacts — shard ``.npz`` files against the
manifest's crc32s, the manifest against its own footer, the mutation
journal's per-record crc32s, a checkpointed journal's pinned base file —
and re-verifies every one, so bit rot is found on the scrubber's clock
instead of the next unlucky reload's.

Detection is only half the job.  Every index artifact is derived state
— the answer is the greedy's over exact θ-neighbourhoods, whatever tree
or seed built the index — so a corrupt one is regenerated from what the
serving process holds, never copied back from elsewhere:

* a shard artifact that fails its manifest crc32, or whose coordinates
  lie outside the bundle's vantage frame, is rebuilt from the frame rows
  the serving index holds in memory plus the manifest's ladder,
  ``branching`` and the shard's seed (:meth:`ShardManifest.shard_rng`),
  then the new crc32 is committed to the manifest;
* a corrupt manifest is rewritten from the serving manifest object;
* a single index ``.npz`` is rewritten from the loaded index object.

Only the journal and its pinned base database cannot be recomputed:
their corruption is recorded as an escalation
(:class:`~repro.durability.errors.ScrubError` from
:meth:`Scrubber.scrub_once` with ``raise_errors=True``) — the operator
restores from backup.

In-flight queries never stop: heals touch only files (atomic replaces)
and swap the in-memory manifest under the mutable index's write latch
when one exists.  The background loop runs in a daemon thread at low
priority (``pace_s`` sleeps between artifacts) and survives every error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
import time
import zlib
from pathlib import Path

from repro import obs
from repro.delta.journal import scan_journal
from repro.durability.errors import ScrubError
from repro.resilience.atomicio import unwrap_checksummed


class Scrubber:
    """Continuously re-verify one deployment's artifacts.

    ``index`` is the live index object (any of the facade's shapes:
    ``NBIndex``, ``ShardedIndex``, ``ReplicatedIndex``, ``MutableIndex``)
    or a zero-argument callable returning the current one — pass the
    service's ``lambda: manager.index`` so hot reloads and compactions
    are always scrubbed at their current generation.
    """

    def __init__(
        self,
        index,
        *,
        interval_s: float = 30.0,
        pace_s: float = 0.0,
        database_path=None,
    ):
        self._source = index
        self.interval_s = float(interval_s)
        self.pace_s = float(pace_s)
        #: Lets the scrubber verify a generation-0 journal's base too.
        self.database_path = (
            Path(database_path) if database_path is not None else None
        )
        self.cycles = 0
        self.files_checked = 0
        self.records_checked = 0
        self.corruptions = 0
        self.heals = 0
        self.escalations = 0
        self.torn_tails = 0
        self.last_report: dict | None = None
        self.last_error: str | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # One pass
    # ------------------------------------------------------------------
    def _resolve(self):
        return self._source() if callable(self._source) else self._source

    def scrub_once(self, *, raise_errors: bool = False) -> dict:
        """One full verification pass; returns the cycle report.

        With ``raise_errors=True`` (the CLI/test path) an unhealed
        corruption raises :class:`ScrubError` after the full pass, so one
        bad artifact does not hide another.
        """
        report = {
            "files": 0,
            "records": 0,
            "corruptions": [],
            "healed": [],
            "escalations": [],
            "skipped": [],
        }
        index = self._resolve()
        if index is not None:
            self._scrub_index(index, report)
        with self._lock:
            self.cycles += 1
            self.files_checked += report["files"]
            self.records_checked += report["records"]
            self.corruptions += len(report["corruptions"])
            self.heals += len(report["healed"])
            self.escalations += len(report["escalations"])
            self.last_report = report
        obs.counter("durability.scrub_cycles")
        obs.counter("durability.scrub_files", report["files"])
        obs.counter("durability.scrub_records", report["records"])
        if report["corruptions"]:
            obs.counter(
                "durability.scrub_corruptions", len(report["corruptions"])
            )
        if report["healed"]:
            obs.counter("durability.scrub_heals", len(report["healed"]))
        if report["escalations"]:
            obs.counter(
                "durability.scrub_escalations", len(report["escalations"])
            )
        if raise_errors and report["escalations"]:
            raise ScrubError(
                f"scrub found unhealable corruption: "
                f"{'; '.join(report['escalations'])}"
            )
        return report

    # ------------------------------------------------------------------
    # Dispatch over index shapes
    # ------------------------------------------------------------------
    def _scrub_index(self, index, report: dict) -> None:
        journal = getattr(index, "journal", None)
        if journal is not None:
            self._scrub_journal(journal, report)
        base = getattr(index, "base", None)
        if base is not None:  # MutableIndex: descend into the base
            if hasattr(base, "manifest"):
                manifest_path = getattr(index, "manifest_path", None) or (
                    getattr(base, "path", None)
                )
                self._scrub_bundle(
                    base, manifest_path, report,
                    latch=getattr(index, "latch", None),
                )
            else:
                self._scrub_single(
                    base, getattr(index, "index_path", None), report
                )
            return
        if hasattr(index, "manifest"):
            self._scrub_bundle(
                index, getattr(index, "path", None), report, latch=None,
            )
            return
        self._scrub_single(index, getattr(index, "index_path", None), report)

    # ------------------------------------------------------------------
    # Journal + pinned base
    # ------------------------------------------------------------------
    def _scrub_journal(self, journal, report: dict) -> None:
        path = journal.path
        if not path.exists():
            report["skipped"].append(f"{path}: journal file absent")
            return
        self._pace()
        scan = scan_journal(path)
        report["files"] += 1
        report["records"] += scan["records"]
        if scan["torn_tail"]:
            # A live writer's in-flight append looks exactly like a torn
            # tail; recovery truncates it on reopen.  Count, don't flag.
            with self._lock:
                self.torn_tails += 1
            obs.counter("durability.scrub_torn_tails")
        for problem in scan["problems"]:
            report["corruptions"].append(problem)
            report["escalations"].append(
                f"{problem} (journals carry the only copy of unfolded "
                f"mutations — restore from backup)"
            )
        base_name = scan["base"]
        base_crc = scan["base_crc32"]
        if base_name is None:
            base_path = self.database_path
            base_crc = None
        else:
            base_path = path.parent / base_name
        if base_path is None:
            return
        self._pace()
        try:
            raw = base_path.read_bytes()
        except OSError as error:
            message = f"{base_path}: journal base unreadable: {error}"
            report["corruptions"].append(message)
            report["escalations"].append(message)
            return
        report["files"] += 1
        if base_crc is not None and zlib.crc32(raw) != base_crc:
            message = (
                f"{base_path}: base database fails the crc32 pinned in "
                f"the generation-{scan['generation']} journal header"
            )
            report["corruptions"].append(message)
            report["escalations"].append(message)

    # ------------------------------------------------------------------
    # Shard bundle (ShardedIndex / ReplicatedIndex)
    # ------------------------------------------------------------------
    def _scrub_bundle(self, index, manifest_path, report, *, latch) -> None:
        from repro.durability.backup import frame_problem
        from repro.shard.errors import ManifestError
        from repro.shard.manifest import ShardManifest

        manifest = index.manifest
        if manifest_path is None:
            report["skipped"].append("shard bundle has no manifest path")
            return
        manifest_path = Path(manifest_path)
        self._pace()
        if not manifest_path.exists():
            report["skipped"].append(
                f"{manifest_path}: absent (compaction swap in flight?)"
            )
        else:
            report["files"] += 1
            try:
                ShardManifest.load(manifest_path)
            except ManifestError as error:
                report["corruptions"].append(str(error))
                # The serving manifest object is the source of truth —
                # rewrite the file from it.
                manifest.save(manifest_path)
                report["healed"].append(
                    f"{manifest_path}: rewritten from the serving manifest"
                )
        for entry in manifest.shards:
            self._pace()
            artifact = manifest_path.parent / entry.path
            try:
                raw = artifact.read_bytes()
            except OSError:
                report["skipped"].append(
                    f"{artifact}: absent (compaction swap in flight?)"
                )
                continue
            report["files"] += 1
            if zlib.crc32(raw) != entry.checksum:
                problem = (
                    f"{artifact}: crc32 mismatch against the shard manifest"
                )
            else:
                problem = frame_problem(
                    manifest, entry.shard_id, manifest_path.parent
                )
                if problem is None:
                    continue
            report["corruptions"].append(problem)
            self._rebuild_shard(
                index, manifest_path, entry.shard_id, artifact, latch=latch,
            )
            report["healed"].append(
                f"{artifact}: rebuilt from the frame and the manifest"
            )

    @staticmethod
    def _rebuild_shard(index, manifest_path, shard_id, artifact, *, latch):
        """Rebuild one shard exactly as the build did, install the artifact
        and commit its crc32 to the manifest, as compaction does."""
        from repro.index.nbindex import NBIndex
        from repro.index.persistence import save_index
        from repro.index.pivec import ThresholdLadder
        from repro.shard.manifest import ShardManifest

        manifest, frame = index.manifest, index.frame
        members = manifest.members(shard_id)
        rebuilt = NBIndex.from_coords(
            index.database.subset([int(i) for i in members]),
            index.distance, frame.vantage_ids, frame.coords[members],
            branching=int(manifest.build.get("branching", 8)),
            thresholds=ThresholdLadder(manifest.ladder),
            rng=ShardManifest.shard_rng(manifest.seed, shard_id),
        )
        staging = artifact.with_name(artifact.name + ".scrub-heal")
        save_index(rebuilt, staging)
        raw = staging.read_bytes()
        unwrap_checksummed(raw, source=str(staging))
        os.replace(staging, artifact)
        new_manifest = dataclasses.replace(manifest, shards=tuple(
            dataclasses.replace(e, checksum=zlib.crc32(raw))
            if e.shard_id == shard_id else e
            for e in manifest.shards
        ))
        new_manifest.save(manifest_path)
        with latch.write() if latch is not None else contextlib.nullcontext():
            index.manifest = new_manifest

    # ------------------------------------------------------------------
    # Single checksummed .npz
    # ------------------------------------------------------------------
    def _scrub_single(self, index, index_path, report: dict) -> None:
        if index_path is None:
            return  # purely in-memory index: nothing on disk to scrub
        index_path = Path(index_path)
        self._pace()
        if not index_path.exists():
            report["skipped"].append(f"{index_path}: absent")
            return
        report["files"] += 1
        from repro.resilience.errors import CorruptIndexError

        try:
            unwrap_checksummed(
                index_path.read_bytes(), source=str(index_path)
            )
            return
        except CorruptIndexError as error:
            report["corruptions"].append(str(error))
        from repro.index.persistence import save_index

        staging = index_path.with_name(index_path.name + ".scrub-heal")
        save_index(index, staging)
        unwrap_checksummed(staging.read_bytes(), source=str(staging))
        os.replace(staging, index_path)
        report["healed"].append(
            f"{index_path}: rewritten from the loaded index object"
        )

    def _pace(self) -> None:
        if self.pace_s > 0:
            time.sleep(self.pace_s)

    # ------------------------------------------------------------------
    # Background service
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run :meth:`scrub_once` every ``interval_s`` in a daemon thread.
        Every exception is caught and recorded — the scrubber outlives
        transient failures."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval_s):
                try:
                    self.scrub_once()
                except Exception as error:  # never kill the service
                    with self._lock:
                        self.last_error = (
                            f"{type(error).__name__}: {error}"
                        )
                    obs.counter("durability.scrub_cycle_errors")

        self._thread = threading.Thread(
            target=loop, name="repro-scrubber", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def status(self) -> dict:
        """Statable summary — the service's ``scrub_status`` op payload."""
        with self._lock:
            return {
                "running": self.running,
                "interval_s": self.interval_s,
                "cycles": self.cycles,
                "files_checked": self.files_checked,
                "records_checked": self.records_checked,
                "corruptions": self.corruptions,
                "heals": self.heals,
                "escalations": self.escalations,
                "torn_tails": self.torn_tails,
                "last_error": self.last_error,
                "last_report": self.last_report,
            }

    def __repr__(self) -> str:
        return (
            f"<Scrubber cycles={self.cycles} files={self.files_checked} "
            f"corruptions={self.corruptions} heals={self.heals} "
            f"running={self.running}>"
        )
