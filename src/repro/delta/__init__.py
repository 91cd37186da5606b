"""Live index mutations: delta-shard memtable + online compaction.

The NB-Index (and its sharded deployment) is built offline; this package
makes a built index *mutable* without giving up the paper's exact
answers.  The shape is a small LSM tree specialized to coverage search:

* inserts land in a **memtable** — the suffix of the live database past
  what the base index covers — and are scanned *exactly* by an extra
  coordinator frontier (:class:`~repro.delta.frontier.ExactFrontier`);
* deletes are **tombstones** masked out of the relevant set before any
  coverage bitset is built;
* a :class:`~repro.delta.journal.MutationJournal` makes mutations
  durable (append-only, crc-per-record, fsync before acknowledge);
* :meth:`MutableIndex.compact` absorbs the memtable by rebuilding only
  the shards whose member sets changed and swapping through the
  manifest's atomic-rename commit point — crash-safe, with the old
  generation still serving on any failure.

The invariant throughout: after any mutation sequence, with or without
interleaved compactions, query answers are **bit-identical** to a
from-scratch build over the mutated database.

Most callers should not import this package directly — use
:func:`repro.open_index` with ``mutable=True``.
"""

from repro.delta.errors import CompactionError, JournalError
from repro.delta.frontier import ExactFrontier
from repro.delta.journal import MutationJournal
from repro.delta.mutable import MutableIndex

__all__ = [
    "CompactionError",
    "ExactFrontier",
    "JournalError",
    "MutableIndex",
]
