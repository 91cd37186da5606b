"""Background scrubber: continuous re-verification of cold artifacts.

Checksums only help if someone reads them.  The scrubber walks a live
deployment's files and runs on each the check every other reader of that
file runs — :func:`~repro.delta.journal.check_journal` on the mutation
journal and the base it pins, :meth:`ShardManifest.load` on the manifest,
:meth:`ShardManifest.check_artifact` (crc32 + vantage frame) on each
shard, the checksum container on a single ``.npz`` — so bit rot is found
on the scrubber's clock instead of the next unlucky reload's.

Detection is only half the job.  Every index artifact is derived state
— the answer is the greedy's over exact θ-neighbourhoods, whatever
seed built the index — so a corrupt one is regenerated from what the
serving process holds, never copied back from elsewhere:

* a shard artifact that fails either shard check is rewritten by
  :func:`~repro.shard.build.write_shard` from the frame rows the serving
  index holds in memory — no distance, nothing built — then the new crc32 is committed to the manifest;
* a corrupt manifest is rewritten from the serving manifest object;
* a single index ``.npz`` is rewritten from the loaded index object.

Only the journal and its pinned base database cannot be recomputed:
their corruption is recorded as an escalation
(:class:`~repro.durability.errors.ScrubError` from
:meth:`Scrubber.scrub_once` with ``raise_errors=True``) — the operator
restores from backup.  An absent index artifact is skipped (a compaction
or reload swap in flight); an absent journal or base escalates.

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
from repro.delta.journal import check_journal
from repro.durability.errors import ScrubError
from repro.resilience.atomicio import read_checksummed, unwrap_checksummed
from repro.resilience.errors import PersistenceError


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
        for path, check, heal in (
            self._files(index, report) if index is not None else ()
        ):
            self._pace()
            try:
                check()
            except OSError as error:
                if heal is not None:  # a swap in flight replaced it
                    report["skipped"].append(f"{path}: absent")
                    continue
                problem = f"{path}: unreadable: {error}"
            except PersistenceError as error:
                problem = str(error)
            else:
                report["files"] += 1
                continue
            report["files"] += 1
            report["corruptions"].append(problem)
            if heal is None:
                report["escalations"].append(
                    f"{problem} (the journal and its base are the only "
                    f"copy of the database — restore from backup)"
                )
            else:
                report["healed"].append(heal())
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
    # The live deployment's files
    # ------------------------------------------------------------------
    def _files(self, index, report: dict):
        """``(path, check, heal)`` for each file ``index`` serves from.
        ``check()`` raises what every other reader of the file raises;
        ``heal()`` rewrites the file from the serving objects and returns
        the report line — ``None`` for the journal and its base, which
        escalate."""
        journal = getattr(index, "journal", None)
        if journal is not None:
            yield journal.path, lambda: self._scan(journal.path, report), None
            if journal.base_name is None and self.database_path is not None:
                yield self.database_path, self.database_path.read_bytes, None
        latch = getattr(index, "latch", None)
        base = getattr(index, "base", index)  # MutableIndex: its base
        if not hasattr(base, "manifest"):
            index_path = getattr(index, "index_path", None)
            if index_path is not None:  # else purely in memory
                path = Path(index_path)
                yield path, lambda: read_checksummed(path), (
                    lambda: _rewrite_single(base, path)
                )
            return
        manifest_path = getattr(index, "manifest_path", None) or base.path
        if manifest_path is None:
            report["skipped"].append("shard bundle has no manifest path")
            return
        manifest_path = Path(manifest_path)
        from repro.shard.manifest import ShardManifest

        yield manifest_path, lambda: ShardManifest.load(manifest_path), (
            lambda: _rewrite_manifest(base, manifest_path)
        )
        for shard_id in range(base.manifest.num_shards):
            yield (
                base.manifest.artifact_path(shard_id, manifest_path.parent),
                lambda s=shard_id: base.manifest.check_artifact(
                    s, manifest_path.parent
                ),
                lambda s=shard_id: _rebuild_shard(
                    base, manifest_path, s, latch
                ),
            )

    def _scan(self, path: Path, report: dict) -> None:
        scan = check_journal(path)
        report["records"] += scan["records"]
        if scan["torn_tail"]:
            # A live writer's in-flight append looks exactly like a torn
            # tail; recovery truncates it on reopen.  Count, don't flag.
            with self._lock:
                self.torn_tails += 1
            obs.counter("durability.scrub_torn_tails")

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


def _rewrite_manifest(index, manifest_path: Path) -> str:
    index.manifest.save(manifest_path)
    return f"{manifest_path}: rewritten from the serving manifest"


def _rewrite_single(index, index_path: Path) -> str:
    from repro.index.persistence import save_index

    staging = index_path.with_name(index_path.name + ".scrub-heal")
    save_index(index, staging)
    unwrap_checksummed(staging.read_bytes(), source=str(staging))
    os.replace(staging, index_path)
    return f"{index_path}: rewritten from the loaded index object"


def _rebuild_shard(index, manifest_path: Path, shard_id: int, latch) -> str:
    """Rewrite one shard's frame rows exactly as the build did, install
    the artifact and commit its crc32 to the manifest, as compaction
    does."""
    from repro.shard.build import write_shard

    manifest = index.manifest
    artifact = manifest.artifact_path(shard_id, manifest_path.parent)
    staging = artifact.with_name(artifact.name + ".scrub-heal")
    raw = write_shard(
        staging, index.database, index.distance, index.frame,
        manifest.members(shard_id),
    )
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
    return f"{artifact}: rebuilt from the frame and the manifest"
