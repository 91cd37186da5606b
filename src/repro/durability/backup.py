"""Crash-consistent snapshot, verified restore, offline verify.

A backup is one directory holding the only deployment state that cannot
be recomputed — the database file, or a mutation journal plus the base
file it replays onto — copied byte-for-byte, plus ``backup.json``: a
versioned archive manifest recording each file's role, size and crc32,
itself protected by a crc32 over its canonical body.  Index artifacts
are derived state and are not backed up: rebuild them after a restore
(``repro build-index`` / ``repro shard-build``).  The capture stages into
``<out>.tmp-<pid>`` and commits by a single directory rename, so a
half-written backup is never mistaken for a real one; reading the source
bytes can run under a read latch so a live mutable deployment yields a
consistent journal prefix.

``restore`` is verify-then-install: every checksum in the archive is
re-checked against the copied bytes *before* anything is written.  A
fresh destination is installed by staging + directory rename (all or
nothing); ``force=True`` overwrites an existing deployment with per-file
atomic replaces, the journal — whose header binds the base file by crc —
last, making the journal swap the effective commit.

:func:`verify_deployment` is the offline auditor behind ``repro verify``:
point it at a backup directory, a shard bundle, a single ``.npz``, a
journal, or a database file and it dispatches to the check each loader
of that file makes — :func:`~repro.delta.journal.check_journal` (records
and pinned base), :meth:`~repro.shard.manifest.ShardManifest.load` and
:meth:`~repro.shard.manifest.ShardManifest.check_artifact` (crc32 and
vantage frame), the checksum container — so the audit, an open, a backup
and the scrubber cannot disagree about a file.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import zlib
from pathlib import Path

from repro import obs
from repro.delta.errors import JournalError
from repro.delta.journal import check_journal
from repro.durability.errors import BackupError, RestoreError
from repro.resilience import faults
from repro.resilience.atomicio import atomic_write, read_checksummed
from repro.resilience.errors import PersistenceError

BACKUP_SCHEMA = "repro.backup/v1"
MANIFEST_NAME = "backup.json"


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(directory: Path) -> None:
    with contextlib.suppress(OSError):
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------
def collect_deployment_files(
    *, database=None, journal=None,
) -> list[tuple[Path, str]]:
    """Resolve a deployment description into ``(path, role)`` pairs.

    A checkpointed journal supersedes ``database``: its header pins the
    base file the records replay onto, and *that* is the file a restore
    must bring back.  Validation happens here, by the check an open
    makes (:func:`~repro.delta.journal.check_journal`): a journal with a
    corrupt record, or whose pinned base fails the header's crc32,
    refuses to be backed up (a backup you cannot restore from is worse
    than none).
    """
    if journal is None:
        if database is None:
            raise BackupError(
                "nothing to back up — pass database= and/or journal="
            )
        return [(Path(database), "database")]
    journal = Path(journal)
    try:
        report = check_journal(journal)
    except JournalError as error:
        raise BackupError(
            f"{journal}: journal is not replayable: {error}"
        ) from error
    if report["base"] is not None:
        base = journal.parent / report["base"]
    elif database is not None:
        base = Path(database)
    else:
        raise BackupError(
            f"{journal}: generation-0 journal needs the database "
            f"file it replays onto (pass database=)"
        )
    if base.name == journal.name:
        raise BackupError(
            f"backup flattens files by name and {base.name!r} appears "
            f"twice ({base} and {journal}); rename one"
        )
    return [(base, "database"), (journal, "journal")]


def create_backup(
    out_dir,
    *,
    database=None,
    journal=None,
    latch=None,
) -> dict:
    """Capture one crash-consistent snapshot into directory ``out_dir``.

    ``latch`` (optional) is a read-write latch whose *read* side is held
    while the source bytes are read — pass the live
    :class:`~repro.delta.MutableIndex`'s latch so no mutation or
    checkpoint swap lands mid-copy.  The target directory must not exist;
    the staged copy becomes visible only through the final rename.
    """
    out = Path(out_dir)
    if out.exists():
        raise BackupError(
            f"{out}: backup target already exists; back up to a fresh "
            f"directory (one backup, one directory)"
        )
    files = collect_deployment_files(database=database, journal=journal)
    read_side = latch.read() if latch is not None else contextlib.nullcontext()
    with read_side:
        blobs = []
        for path, role in files:
            try:
                blobs.append((path.name, role, path.read_bytes()))
            except OSError as error:
                raise BackupError(
                    f"{path}: cannot read deployment file: {error}"
                ) from error
    stage = out.parent / f"{out.name}.tmp-{os.getpid()}"
    if stage.exists():
        shutil.rmtree(stage)
    stage.mkdir(parents=True)
    try:
        entries = []
        for name, role, data in blobs:
            target = stage / name
            target.write_bytes(data)
            _fsync_file(target)
            entries.append({
                "name": name,
                "role": role,
                "bytes": len(data),
                "crc32": zlib.crc32(data),
            })
        faults.maybe_kill_at("durability.backup.copy")
        body = {"schema": BACKUP_SCHEMA, "files": entries}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        document = {"backup": body, "crc32": zlib.crc32(canonical.encode())}
        manifest_path = stage / MANIFEST_NAME
        with manifest_path.open("w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        faults.maybe_kill_at("durability.backup.manifest")
        _fsync_dir(stage)
        os.rename(stage, out)
        _fsync_dir(out.parent)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    faults.maybe_kill_at("durability.backup.commit")
    obs.counter("durability.backups")
    return {
        "path": str(out),
        "files": len(entries),
        "bytes": sum(entry["bytes"] for entry in entries),
        "roles": sorted({entry["role"] for entry in entries}),
    }


# ---------------------------------------------------------------------------
# Verify
# ---------------------------------------------------------------------------
def read_backup_manifest(backup_dir) -> dict:
    """Load and self-check ``backup.json``; raises :class:`BackupError`."""
    manifest_path = Path(backup_dir) / MANIFEST_NAME
    try:
        document = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BackupError(
            f"{manifest_path}: unreadable backup manifest: {error}"
        ) from error
    if not isinstance(document, dict) or "backup" not in document:
        raise BackupError(f"{manifest_path}: not a backup manifest")
    body = document["backup"]
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(canonical.encode()) != document.get("crc32"):
        raise BackupError(
            f"{manifest_path}: backup manifest checksum mismatch — the "
            f"archive index itself is corrupt"
        )
    if body.get("schema") != BACKUP_SCHEMA:
        raise BackupError(
            f"{manifest_path}: unsupported backup schema "
            f"{body.get('schema')!r} (this build reads {BACKUP_SCHEMA!r})"
        )
    return body


def verify_backup(backup_dir) -> dict:
    """Re-check every file in a backup against the archive manifest."""
    backup_dir = Path(backup_dir)
    problems: list[str] = []
    checked: list[str] = []
    try:
        body = read_backup_manifest(backup_dir)
    except BackupError as error:
        return {"ok": False, "problems": [str(error)], "checked": []}
    for entry in body["files"]:
        path = backup_dir / entry["name"]
        try:
            raw = path.read_bytes()
        except OSError as error:
            problems.append(f"{path}: missing from archive: {error}")
            continue
        if len(raw) != int(entry["bytes"]):
            problems.append(
                f"{path}: {len(raw)} bytes on disk, archive manifest "
                f"says {entry['bytes']}"
            )
        elif zlib.crc32(raw) != int(entry["crc32"]):
            problems.append(
                f"{path}: crc32 mismatch against the archive manifest"
            )
        else:
            checked.append(entry["name"])
    return {"ok": not problems, "problems": problems, "checked": checked}


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------
def restore_backup(backup_dir, dest_dir, *, force: bool = False) -> dict:
    """Verify a backup, then install it into ``dest_dir``.

    Every checksum is verified before any byte is written — a corrupt
    archive raises :class:`RestoreError` with the destination untouched.
    A fresh destination is installed atomically (stage + rename); with
    ``force=True`` an existing directory is overwritten file by file with
    atomic replaces, the journal last.
    """
    backup_dir = Path(backup_dir)
    report = verify_backup(backup_dir)
    if not report["ok"]:
        raise RestoreError(
            f"{backup_dir}: refusing to restore from a backup that fails "
            f"verification: {'; '.join(report['problems'])}"
        )
    faults.maybe_kill_at("durability.restore.verify")
    body = read_backup_manifest(backup_dir)
    # The journal's header binds its base by crc: a crash mid-install
    # leaves no journal or one whose base is already in place.
    entries = sorted(body["files"], key=lambda e: e["role"] == "journal")
    dest = Path(dest_dir)
    forced = dest.exists()
    if forced:
        if not force:
            raise RestoreError(
                f"{dest}: destination exists; pass force=True "
                f"(--force) to overwrite it in place"
            )
        for entry in entries:
            raw = (backup_dir / entry["name"]).read_bytes()
            with atomic_write(dest / entry["name"], "wb") as handle:
                handle.write(raw)
            faults.maybe_kill_at("durability.restore.install")
    else:
        stage = dest.parent / f"{dest.name}.tmp-{os.getpid()}"
        if stage.exists():
            shutil.rmtree(stage)
        stage.mkdir(parents=True)
        try:
            for entry in entries:
                raw = (backup_dir / entry["name"]).read_bytes()
                target = stage / entry["name"]
                target.write_bytes(raw)
                _fsync_file(target)
                faults.maybe_kill_at("durability.restore.install")
            _fsync_dir(stage)
            os.rename(stage, dest)
            _fsync_dir(dest.parent)
        except BaseException:
            shutil.rmtree(stage, ignore_errors=True)
            raise
    faults.maybe_kill_at("durability.restore.commit")
    obs.counter("durability.restores")
    return {
        "path": str(dest),
        "files": len(entries),
        "roles": sorted({entry["role"] for entry in entries}),
        "forced": forced,
    }


# ---------------------------------------------------------------------------
# Offline audit (``repro verify``)
# ---------------------------------------------------------------------------
def verify_deployment(path) -> dict:
    """Offline audit of whatever lives at ``path``.

    Dispatches on shape — a backup directory (or its ``backup.json``), a
    shard bundle directory or manifest, a checksummed index ``.npz``, a
    mutation journal (plus its pinned base file), or a database JSONL —
    to the check every loader of that file makes.  Returns ``{"ok": bool,
    "problems": [...], "checked": [...]}``.
    """
    from repro.graphs.io import load_database
    from repro.shard.manifest import ShardManifest

    path = Path(path)
    if path.name == MANIFEST_NAME:
        path = path.parent
    if path.is_dir():
        if (path / MANIFEST_NAME).exists():
            report = verify_backup(path)
            report["checked"] = [
                str(path / name) for name in report["checked"]
            ]
            return report
        path = path / "manifest.json"
    problems: list[str] = []
    checked: list[str] = []

    def audit(target: Path, check):
        try:
            outcome = check()
        except PersistenceError as error:
            problems.append(str(error))
            return None
        except (OSError, ValueError, KeyError) as error:
            problems.append(f"{target}: {type(error).__name__}: {error}")
            return None
        checked.append(str(target))
        return outcome

    try:
        with path.open("rb") as handle:
            first = handle.readline(65536)
    except OSError as error:
        return {"ok": False, "problems": [f"{path}: unreadable: {error}"],
                "checked": []}
    if path.suffix == ".npz":
        audit(path, lambda: read_checksummed(path))
    elif b"repro.mutation-journal" in first:
        audit(path, lambda: check_journal(path))
    elif b"repro-graphdb" in first:
        audit(path, lambda: load_database(path))
    elif path.suffix == ".json":
        manifest = audit(path, lambda: ShardManifest.load(path))
        for shard_id in range(manifest.num_shards) if manifest else ():
            audit(
                manifest.artifact_path(shard_id, path.parent),
                lambda: manifest.check_artifact(shard_id, path.parent),
            )
    else:
        problems.append(
            f"{path}: not a recognized repro artifact (backup dir, shard "
            f"manifest, .npz index, journal, or database JSONL)"
        )
    return {"ok": not problems, "problems": problems, "checked": checked}
