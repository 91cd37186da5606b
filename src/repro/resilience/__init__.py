"""Resilience layer: deadlines, restart backoff, durable writes.

The paper's value proposition — cheap queries after an expensive offline
phase — only holds in production if a pathological GED pair can't stall a
query forever and a kill -9 can't throw away an hour-long build.  This
package provides the shared machinery; the GED, index, replica and
persistence layers hook into it.

* :mod:`~repro.resilience.deadline` — budget propagation
  (:class:`Deadline`, :func:`deadline_scope`, :class:`BudgetExceeded`)
  and the exact→beam→bipartite degradation accounting.
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy`, the restart
  backoff schedule.
* :mod:`~repro.resilience.atomicio` — atomic renames and the checksummed
  container (:func:`atomic_write`, :func:`write_checksummed`).
* :mod:`~repro.resilience.checkpoint` — resumable, bit-identical index
  builds (:class:`BuildCheckpoint`).
* :mod:`~repro.resilience.faults` — deterministic fault injection for
  tests and the ``bench_degradation`` benchmark.
* :mod:`~repro.resilience.errors` — the persistence exception hierarchy
  (all ``ValueError`` subclasses).
"""

from repro.resilience import faults
from repro.resilience.atomicio import (
    atomic_write,
    read_checksummed,
    unwrap_checksummed,
    write_checksummed,
)
from repro.resilience.deadline import (
    BudgetExceeded,
    Deadline,
    current_deadline,
    deadline_scope,
)
from repro.resilience.errors import (
    CheckpointError,
    CorruptIndexError,
    DatabaseMismatchError,
    IndexFormatError,
    PersistenceError,
)
from repro.resilience.retry import RetryPolicy

__all__ = [
    "Deadline",
    "deadline_scope",
    "current_deadline",
    "BudgetExceeded",
    "RetryPolicy",
    "faults",
    "atomic_write",
    "write_checksummed",
    "read_checksummed",
    "unwrap_checksummed",
    "PersistenceError",
    "CorruptIndexError",
    "IndexFormatError",
    "DatabaseMismatchError",
    "CheckpointError",
]
