"""Journal checkpointing: fold the journal into a fresh base database.

The mutation journal grows without bound — every insert carries its full
graph, and compaction cannot drop records because the original base file
still lacks the inserted graphs.  A *checkpoint* rewrites the base:

1. **Snapshot under the read latch** — the live database (tombstones
   included) and the journal's current record count.  Queries and
   mutations keep flowing the moment the latch drops.
2. **Write the new base outside any latch** —
   :func:`~repro.graphs.io.save_database` round-trips tombstones, so the
   rewritten file *is* the mutated database up to the snapshot; its
   crc32 is computed from the bytes on disk.
3. **Commit under the write latch** —
   :meth:`~repro.delta.journal.MutationJournal.start_generation` writes
   a complete replacement journal (new generation header pinning the
   base file + crc, plus the lines that landed after the snapshot,
   copied from the journal file byte for byte) and
   ``os.replace``s it over the live journal.  That single rename is the
   commit point: a crash before it rolls back to the old generation
   (old base + old journal, both untouched), a crash after it reopens
   into the new one.  ``base + journal = database`` holds on both sides.

After a quiet checkpoint the journal carries **zero** mutation records;
records appended by mutations racing the checkpoint are carried into the
new generation and still replay correctly (inserts land past the
snapshot length, deletes re-mark).

Fault sites (:func:`repro.resilience.faults.maybe_kill_at`):
``durability.checkpoint.base`` (new base durable, journal untouched),
``durability.checkpoint.journal`` (replacement staged, not yet renamed),
``durability.checkpoint.commit`` (rename done).  The power-failure smoke
kills hard at each and asserts bit-identical reopen.
"""

from __future__ import annotations

import errno
import time
import zlib
from pathlib import Path

from repro import obs
from repro.delta.errors import JournalError
from repro.delta.journal import MutationJournal, pinned_base
from repro.durability.errors import CheckpointError
from repro.graphs.io import load_database, save_database
from repro.index.errors import IndexClosedError
from repro.resilience import faults


def base_file_name(journal_path: Path, generation: int) -> str:
    """Deterministic name of one generation's base database file (lives
    next to the journal; relocates with it)."""
    return f"{Path(journal_path).name}.base-gen{generation:04d}.jsonl"


def resolve_base_path(journal: MutationJournal, database_path=None) -> Path:
    """The database file this journal's records replay onto.

    Generation 0 replays onto the caller-provided ``database_path``; a
    checkpointed journal pins its own base file next to itself
    (:func:`~repro.delta.journal.pinned_base`: a swapped or bit-rotted
    base raises :class:`~repro.delta.errors.JournalError` before any
    replay).
    """
    if journal.base_name is None:
        if database_path is None:
            raise JournalError(
                f"{journal.path}: generation-0 journal needs the original "
                f"database file to replay onto"
            )
        return Path(database_path)
    return pinned_base(
        journal.path, journal.base_name, journal.base_crc32,
        journal.generation,
    )


def _write_base(snapshot, journal: MutationJournal) -> tuple[str, int, int]:
    """Write the next generation's base file; returns (name, crc, bytes)."""
    name = base_file_name(journal.path, journal.generation + 1)
    base_path = journal.path.parent / name
    save_database(snapshot, base_path)  # atomic: temp + fsync + rename
    faults.maybe_kill_at("durability.checkpoint.base")
    raw = base_path.read_bytes()
    return name, zlib.crc32(raw), len(raw)


def _drop_old_base(journal: MutationJournal, old_base_name) -> None:
    """Post-commit: the superseded generation's base file is unreferenced.

    Best-effort, and only ever a file *this module* named — the user's
    original generation-0 database is never touched.
    """
    if old_base_name is None or old_base_name == journal.base_name:
        return
    try:
        (journal.path.parent / old_base_name).unlink()
    except OSError:  # pragma: no cover - cleanup is advisory
        pass


def checkpoint(mutable) -> dict:
    """Online checkpoint of a live :class:`~repro.delta.MutableIndex`.

    Concurrent queries and mutations keep serving throughout; only the
    final journal swap takes the write latch.  On any failure before the
    commit rename the old generation keeps serving — in memory and on
    disk — and :class:`CheckpointError` is raised with the cause chained.
    A closed index refuses with
    :class:`~repro.index.errors.IndexClosedError`, also when the close
    lands while the new base is being written.
    """
    journal = mutable.journal
    if journal is None:
        raise CheckpointError(
            "checkpoint needs a journal — open the index with "
            "journal=PATH (mutations without a journal have no durable "
            "log to fold)"
        )
    started = time.perf_counter()
    with mutable.latch.read():
        n1 = len(mutable.database)
        fold_count = journal.num_records
        fold_at = journal.end
        # ``subset`` renumbers from zero (identity here) but does not
        # carry soft-deletion marks — re-mark them so the saved base
        # round-trips the tombstones.
        snapshot = mutable.database.subset(range(n1))
        for gid in mutable.database.deleted:
            snapshot.mark_deleted(int(gid))
    old_base_name = journal.base_name
    try:
        with obs.span(
            "durability.checkpoint", generation=journal.generation + 1,
            folded=fold_count,
        ):
            name, crc, nbytes = _write_base(snapshot, journal)
            with mutable.latch.write():
                if mutable.closed:
                    # close() ran meanwhile: the journal may already be a
                    # reopened index's, and must not be replaced.
                    raise IndexClosedError()
                journal.start_generation(
                    base_name=name, base_crc32=crc, carry_from=fold_at,
                )
    except IndexClosedError:
        raise
    except Exception as error:
        obs.counter("durability.checkpoint_failures")
        raise CheckpointError(
            f"checkpoint failed — generation {journal.generation} still "
            f"serving: {type(error).__name__}: {error}"
        ) from error
    _drop_old_base(journal, old_base_name)
    obs.counter("durability.checkpoints")
    obs.observe_time(
        "durability.checkpoint_seconds", time.perf_counter() - started
    )
    report = {
        "generation": journal.generation,
        "folded_records": fold_count,
        "carried_records": journal.num_records,
        "base": journal.base_name,
        "base_crc32": journal.base_crc32,
        "base_bytes": nbytes,
        "seconds": round(time.perf_counter() - started, 6),
    }
    return report


def checkpoint_offline(database_path, journal_path) -> dict:
    """Checkpoint a journal without loading any index (the CLI path).

    Replays the journal over its base (the checkpointed base for
    generation > 0, else ``database_path``), writes the folded database
    as the next generation's base, and swaps the journal — the same
    commit discipline as the online path, minus the latches (nothing
    else holds the journal open).  A missing journal is a
    :class:`FileNotFoundError`, and no file is made.
    """
    started = time.perf_counter()
    if not Path(journal_path).is_file():  # opening would write a header
        raise FileNotFoundError(
            errno.ENOENT, "missing mutation journal", str(journal_path)
        )
    journal = MutationJournal(journal_path)
    try:
        base_path = resolve_base_path(journal, database_path)
        database = load_database(base_path)
        journal.replay_into(database)
        old_base_name = journal.base_name
        fold_count = journal.num_records
        try:
            name, crc, nbytes = _write_base(database, journal)
            journal.start_generation(base_name=name, base_crc32=crc)
        except Exception as error:
            obs.counter("durability.checkpoint_failures")
            raise CheckpointError(
                f"checkpoint failed — generation {journal.generation} "
                f"still serving: {type(error).__name__}: {error}"
            ) from error
        _drop_old_base(journal, old_base_name)
    finally:
        journal.close()
    obs.counter("durability.checkpoints")
    return {
        "generation": journal.generation,
        "folded_records": fold_count,
        "carried_records": 0,
        "base": journal.base_name,
        "base_crc32": journal.base_crc32,
        "base_bytes": nbytes,
        "seconds": round(time.perf_counter() - started, 6),
    }
