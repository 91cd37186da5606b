"""Resilience layer: deadlines, durable writes, fault injection.

The paper's value proposition — cheap queries after an offline phase —
only holds in production if a pathological GED pair can't stall a query
forever and a torn write can't pass for an index.  This package provides
the shared machinery; the GED, index, replica and persistence layers hook
into it.

* :mod:`~repro.resilience.deadline` — cooperative cancellation
  (:class:`Deadline`, :func:`deadline_scope`, :class:`BudgetExceeded`):
  a query whose deadline expires raises instead of answering.
* :mod:`~repro.resilience.atomicio` — atomic renames and the checksummed
  container (:func:`atomic_write`, :func:`write_checksummed`).
* :mod:`~repro.resilience.faults` — deterministic fault injection for
  tests and the chaos smokes.
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
    CorruptIndexError,
    DatabaseMismatchError,
    IndexFormatError,
    PersistenceError,
)

__all__ = [
    "Deadline",
    "deadline_scope",
    "current_deadline",
    "BudgetExceeded",
    "faults",
    "atomic_write",
    "write_checksummed",
    "read_checksummed",
    "unwrap_checksummed",
    "PersistenceError",
    "CorruptIndexError",
    "IndexFormatError",
    "DatabaseMismatchError",
]
