"""The mutation journal: an append-only, per-record-checksummed log.

Durability for the memtable.  The base database file (``graphs/io``
JSONL) is never rewritten by mutations; instead every ``insert`` /
``delete`` / ``update`` appends one self-checksummed JSON line here, and
reopening an index replays the journal over the freshly loaded database —
``database = base file + journal``, exactly.  Compaction does **not**
truncate the journal (the base file still lacks the inserted graphs);
:func:`repro.durability.checkpoint` is the online operation that rewrites
the base database (``save_database`` round-trips tombstones for exactly
this purpose) and starts a fresh *generation* of this journal through
:meth:`MutationJournal.start_generation` — an atomic rename is the commit
point, so a crash at any moment leaves either the old generation or the
new one, never a mix.

Crash safety is the LSM rule: each append is one line, flushed and
fsynced before the mutation is acknowledged — and before it is applied
in memory, so an append that fails (cut back to the last committed line)
leaves nothing to roll back.  On replay a torn *final*
line (the crash-mid-append signature) is truncated away — byte-exactly,
in binary mode — with a warning and an obs counter; a bad record anywhere
*before* the tail means real corruption and raises
:class:`~repro.delta.errors.JournalError`.  Recovery streams the file
line by line, so reopening costs O(1) memory in the journal size beyond
the decoded records themselves, and replay drops those: an open journal
holds a record count and its committed byte length, never parsed
records (a checkpoint copies its carried tail back from the file).

Line format (one JSON object per line)::

    {"record": {"op": "insert", "gid": 7, "graph": {...},
                "features": [...]}, "crc32": 1234}

where ``crc32`` covers the canonical (sorted, compact) JSON of
``record``.  The first line is a header record carrying the schema tag
and, for checkpointed journals, the generation number plus a pointer to
(and a crc32 of) the rewritten base database file the records replay
onto.
"""

from __future__ import annotations

import contextlib
import json
import os
import warnings
import zlib
from pathlib import Path

import numpy as np

from repro import obs
from repro.delta.errors import JournalError
from repro.graphs.database import GraphDatabase
from repro.graphs.io import graph_from_dict, graph_to_dict
from repro.resilience import faults

SCHEMA = "repro.mutation-journal/v1"


def _encode(record: dict) -> str:
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(canonical.encode())
    return json.dumps(
        {"record": record, "crc32": crc}, separators=(",", ":")
    )


def _decode(line: str) -> dict | None:
    """The record in one journal line, or ``None`` if the line is torn."""
    try:
        document = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(document, dict) or "record" not in document:
        return None
    record = document["record"]
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(canonical.encode()) != document.get("crc32"):
        return None
    return record


def _iter_journal_lines(path: Path):
    """Stream ``(offset, line_bytes)`` pairs without loading the file.

    ``offset`` is the byte position where the line starts; ``line_bytes``
    keeps its trailing newline (absent only on a torn final line), so
    ``offset + len(line_bytes)`` is always the exact truncation point
    *after* the line.
    """
    offset = 0
    with path.open("rb") as handle:
        for line in handle:
            yield offset, line
            offset += len(line)


def pinned_base(journal_path, base_name: str, base_crc32, generation) -> Path:
    """The base database file a checkpointed journal's header pins (next
    to the journal), once its bytes match the header's crc32; a missing,
    unreadable, rotted or swapped file raises :class:`JournalError`.  The
    one check of the pinned base: open, ``repro verify``, backup and the
    scrubber all make it."""
    base_path = Path(journal_path).parent / base_name
    try:
        raw = base_path.read_bytes()
    except OSError as error:
        raise JournalError(
            f"{journal_path}: checkpointed base file {base_path} is "
            f"missing or unreadable: {error}"
        ) from error
    if zlib.crc32(raw) != base_crc32:
        raise JournalError(
            f"{base_path}: base database fails the crc32 pinned in the "
            f"generation-{generation} journal header — the file is corrupt "
            f"or was swapped"
        )
    return base_path


def check_journal(path: str | Path) -> dict:
    """:func:`scan_journal`'s report, or :class:`JournalError` naming its
    problems when the journal or its pinned base cannot replay."""
    report = scan_journal(path)
    if report["problems"]:
        raise JournalError("; ".join(report["problems"]))
    return report


def scan_journal(path: str | Path) -> dict:
    """Audit one journal file, and the base it pins, without mutating it.

    Streams every line, verifying the per-record crc32 and the header,
    checks a checkpointed journal's base file (:func:`pinned_base`), and
    reports what a reopen would see::

        {"records": N,            # valid mutation records (header excluded)
         "generation": G, "base": name-or-None, "base_crc32": crc-or-None,
         "torn_tail": bool,       # final line fails its checksum
         "problems": [...]}       # mid-file corruption / header / base

    A torn tail is *not* a problem — it is the expected shape of a crash
    (or a concurrent append caught mid-write) and reopening repairs it.
    Anything in ``problems`` means the journal cannot replay.  Used by
    ``repro verify``, backups and the background scrubber, which must
    never truncate a live file the way :class:`MutationJournal` does on
    open.
    """
    path = Path(path)
    report = {
        "records": 0, "generation": 0, "base": None, "base_crc32": None,
        "torn_tail": False, "problems": [],
    }
    if not path.exists():
        report["problems"].append(f"{path}: journal file does not exist")
        return report
    header_seen = False
    bad_at: int | None = None
    index = 0
    for _offset, raw in _iter_journal_lines(path):
        line = raw.decode("utf-8", errors="replace")
        if not line.strip():
            index += 1
            continue
        if bad_at is not None:
            # Valid-looking bytes after a bad record: corruption, not a
            # torn tail.
            report["problems"].append(
                f"{path}: record {bad_at} fails its checksum with intact "
                f"records after it — corrupt, not torn"
            )
            bad_at = None
            report["torn_tail"] = False
        record = _decode(line)
        if record is None or not raw.endswith(b"\n"):
            bad_at = index
            report["torn_tail"] = True
            index += 1
            continue
        if not header_seen:
            header_seen = True
            if record.get("schema") != SCHEMA:
                report["problems"].append(
                    f"{path}: unsupported journal schema "
                    f"{record.get('schema')!r}"
                )
            report["generation"] = int(record.get("generation", 0))
            report["base"] = record.get("base")
            base_crc = record.get("base_crc32")
            report["base_crc32"] = (
                None if base_crc is None else int(base_crc)
            )
        else:
            report["records"] += 1
        index += 1
    if not header_seen and not report["torn_tail"]:
        report["problems"].append(f"{path}: journal has no header record")
    if report["base"] is not None:
        try:
            pinned_base(
                path, report["base"], report["base_crc32"],
                report["generation"],
            )
        except JournalError as error:
            report["problems"].append(str(error))
    return report


class MutationJournal:
    """Append-only mutation log bound to one file.

    Opening reads and validates every existing record (repairing a torn
    tail in place); :meth:`replay_into` then applies them to a freshly
    loaded database and lets them go.  Afterwards the journal stays open
    for appends — every append is flushed and fsynced before it returns.

    A checkpointed journal (generation > 0) additionally pins its own
    base database file: :attr:`base_name` / :attr:`base_crc32` name the
    rewritten base next to the journal, and :func:`repro.open_index`
    loads *that* file (crc-verified) instead of the original database.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        #: Parsed records awaiting :meth:`replay_into`, which drops them:
        #: afterwards the file is the only copy.
        self._records: list[dict] = []
        #: Mutation records in the file (header excluded).
        self.num_records = 0
        #: Torn final records truncated away on open — a nonzero value is
        #: the fingerprint of a crash mid-append (surfaced through
        #: ``MutableIndex.stats()["delta"]["journal_torn_tails"]``).
        self.torn_tail_repairs = 0
        #: Checkpoint generation (0 = the original base database file).
        self.generation = 0
        #: Relative filename of the checkpointed base database next to
        #: this journal, or ``None`` at generation 0.
        self.base_name: str | None = None
        #: crc32 of the checkpointed base file's bytes (``None`` at
        #: generation 0) — verified before the base is trusted.
        self.base_crc32: int | None = None
        self._load()
        #: Byte length of the file's committed lines — where the next
        #: append starts, and where a failed one is cut back to.
        self.end = self.path.stat().st_size
        self._handle = self.path.open("ab")

    # ------------------------------------------------------------------
    # Open / recovery
    # ------------------------------------------------------------------
    def _header_record(self) -> dict:
        header = {"op": "open", "schema": SCHEMA}
        if self.generation:
            header["generation"] = self.generation
            header["base"] = self.base_name
            header["base_crc32"] = self.base_crc32
        return header

    def _load(self) -> None:
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("w", encoding="utf-8") as handle:
                handle.write(_encode(self._header_record()) + "\n")
                handle.flush()
            return
        # Stream line by line in binary mode: recovery memory stays O(1)
        # in the file size, and the truncation point is byte-exact (no
        # text-mode newline arithmetic).
        records: list[dict] = []
        torn_at: int | None = None
        keep_bytes = 0
        index = 0
        for offset, raw in _iter_journal_lines(self.path):
            line = raw.decode("utf-8", errors="replace")
            if not line.strip():
                if torn_at is None:
                    keep_bytes = offset + len(raw)
                index += 1
                continue
            if torn_at is not None:
                raise JournalError(
                    f"{self.path}: journal record {torn_at} fails its "
                    f"checksum with intact records after it — the "
                    f"file is corrupt, not torn"
                )
            record = _decode(line)
            if record is None or not raw.endswith(b"\n"):
                # Candidate torn tail; only confirmed if nothing valid
                # follows.  (A final line without its newline is torn by
                # definition — appends write the newline in the same
                # buffer as the record.)
                torn_at = index
                index += 1
                continue
            if not records:
                if record.get("schema") != SCHEMA:
                    raise JournalError(
                        f"{self.path}: unsupported journal schema "
                        f"{record.get('schema')!r} (this build reads "
                        f"{SCHEMA!r})"
                    )
                self.generation = int(record.get("generation", 0))
                self.base_name = record.get("base")
                base_crc = record.get("base_crc32")
                self.base_crc32 = (
                    None if base_crc is None else int(base_crc)
                )
            records.append(record)
            keep_bytes = offset + len(raw)
            index += 1
        if torn_at is not None:
            # Torn tail: the crash-mid-append signature.  Truncate it
            # away; the un-acknowledged mutation never happened.
            warnings.warn(
                f"{self.path}: truncating torn final journal record",
                RuntimeWarning,
                stacklevel=4,
            )
            obs.counter("delta.journal_truncated")
            obs.counter("delta.journal_torn_tail")
            self.torn_tail_repairs += 1
            with self.path.open("r+b") as handle:
                handle.truncate(keep_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        if not records:
            raise JournalError(f"{self.path}: journal has no header record")
        self._records = records[1:]  # drop the header
        self.num_records = len(self._records)

    def replay_into(self, database: GraphDatabase) -> dict:
        """Apply every journaled mutation to ``database`` (which must be
        the freshly loaded base file), then drop the parsed records — the
        file keeps them.  Returns replay counts."""
        counts = {"inserts": 0, "deletes": 0, "updates": 0}
        records, self._records = self._records, []
        for record in records:
            op = record["op"]
            if op in ("insert", "update"):
                graph = graph_from_dict(record["graph"])
                gid = database.append(
                    graph, np.asarray(record["features"], dtype=float)
                )
                if gid != int(record["gid"]):
                    raise JournalError(
                        f"{self.path}: replayed {op} landed at id {gid}, "
                        f"journal says {record['gid']} — journal and "
                        f"database file disagree"
                    )
                if op == "update":
                    database.mark_deleted(int(record["old_gid"]))
                counts["updates" if op == "update" else "inserts"] += 1
            elif op == "delete":
                database.mark_deleted(int(record["gid"]))
                counts["deletes"] += 1
            else:
                raise JournalError(
                    f"{self.path}: unknown journal op {op!r}"
                )
        return counts

    # ------------------------------------------------------------------
    # Appends (fsync before acknowledging)
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        """Write, flush and fsync one record.  An append that fails with
        an ``OSError`` (a full disk, an I/O error) leaves the file as it
        was before it and re-raises: the mutation it journals is not
        acknowledged, so it must not replay either."""
        line = (_encode(record) + "\n").encode()
        try:
            self._handle.write(line)
            self._handle.flush()
            faults.maybe_kill_at("durability.journal.append")
            os.fsync(self._handle.fileno())
        except OSError:
            self._cut_back()
            raise
        faults.maybe_kill_at("durability.journal.fsync")
        self.end += len(line)
        self.num_records += 1
        obs.counter("delta.journal_records")

    def _cut_back(self) -> None:
        """Truncate the file to its committed lines after a failed append.
        The old handle goes first — its buffer may still hold the failed
        line, which closing writes out before the cut removes it."""
        with contextlib.suppress(OSError):
            self._handle.close()
        with self.path.open("r+b") as handle:
            handle.truncate(self.end)
            handle.flush()
            os.fsync(handle.fileno())
        self._handle = self.path.open("ab")

    def append_insert(self, gid: int, graph, features) -> None:
        self._append({
            "op": "insert",
            "gid": int(gid),
            "graph": graph_to_dict(graph),
            "features": [float(x) for x in np.asarray(features).ravel()],
        })

    def append_delete(self, gid: int) -> None:
        self._append({"op": "delete", "gid": int(gid)})

    def append_update(self, old_gid: int, gid: int, graph, features) -> None:
        self._append({
            "op": "update",
            "old_gid": int(old_gid),
            "gid": int(gid),
            "graph": graph_to_dict(graph),
            "features": [float(x) for x in np.asarray(features).ravel()],
        })

    # ------------------------------------------------------------------
    # Checkpoint generations
    # ------------------------------------------------------------------
    def start_generation(
        self,
        *,
        base_name: str,
        base_crc32: int,
        carry_from: int | None = None,
    ) -> None:
        """Swap in a fresh generation of this journal, atomically.

        Writes a complete replacement journal — new header pinning
        ``base_name``/``base_crc32``, then the lines committed past byte
        ``carry_from`` (an earlier :attr:`end`: the mutations that landed
        after the checkpoint snapshot and are therefore not folded into
        the new base), copied from the file byte for byte; ``None``
        carries nothing — to a staging file, fsyncs it, and
        ``os.replace``s it over the live path.  The rename is the commit
        point: a crash before it leaves the old generation fully intact,
        a crash after it leaves the new one fully intact.

        Callers (:func:`repro.durability.checkpoint`) must hold the
        index's write latch: the live append handle is closed and
        reopened across the swap, and no append may land in the tail
        while it is copied.
        """
        carried = b""
        if carry_from is not None:
            with self.path.open("rb") as handle:
                handle.seek(carry_from)
                carried = handle.read(self.end - carry_from)
        new_generation = self.generation + 1
        staging = self.path.with_name(
            self.path.name + f".gen{new_generation:04d}.tmp"
        )
        header = {
            "op": "open",
            "schema": SCHEMA,
            "generation": new_generation,
            "base": str(base_name),
            "base_crc32": int(base_crc32),
        }
        with staging.open("wb") as handle:
            handle.write((_encode(header) + "\n").encode())
            handle.write(carried)
            handle.flush()
            os.fsync(handle.fileno())
        faults.maybe_kill_at("durability.checkpoint.journal")
        self._handle.close()
        os.replace(staging, self.path)
        _fsync_dir(self.path.parent)
        # Committed on disk; bring the in-memory view up before the
        # post-commit kill site so an in-process SimulatedCrash leaves a
        # consistent (new-generation) journal object behind.
        self.generation = new_generation
        self.base_name = str(base_name)
        self.base_crc32 = int(base_crc32)
        self.num_records = carried.count(b"\n")  # appends write no blanks
        self.end = self.path.stat().st_size
        self._handle = self.path.open("ab")
        obs.counter("durability.journal_generations")
        faults.maybe_kill_at("durability.checkpoint.commit")

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __repr__(self) -> str:
        return (
            f"<MutationJournal {self.path} gen={self.generation} "
            f"records={self.num_records}>"
        )


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync (persists a rename's directory entry)."""
    with contextlib.suppress(OSError):
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
