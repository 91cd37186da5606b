"""Typed errors for misuse of a built index.

Build/load failures live in :mod:`repro.resilience.errors` (they are
persistence problems); this module holds errors about calls that an
index cannot honour as asked.
"""

from __future__ import annotations


class ReadOnlyIndexError(TypeError):
    """A mutation method was called on an immutable index.

    ``NBIndex`` and ``ShardedIndex`` objects opened the ordinary way are
    read-only views of an offline build; mutations need the delta layer.
    Reopen through :func:`repro.open_index` with ``mutable=True`` to get
    a :class:`~repro.delta.MutableIndex` that accepts them.
    """

    def __init__(self, operation: str, index_kind: str):
        self.operation = operation
        self.index_kind = index_kind
        super().__init__(
            f"{index_kind}.{operation}() needs a mutable index; this one "
            f"is read-only — reopen it with "
            f"repro.open_index(path, mutable=True)"
        )



class IndexClosedError(ValueError):
    """A method was called on a :class:`~repro.delta.MutableIndex` after
    its :meth:`~repro.delta.MutableIndex.close`.

    Closing hands back the live database, the base index, the vantage
    frame and every engine cache, so a closed handle has nothing left to
    query, mutate, compact or checkpoint — and must not touch the journal
    a reopened index now appends to.  Only ``stats()`` (a snapshot taken
    at close) and a second ``close()`` still answer.  Like a closed
    file's ``ValueError``, the fix is to reopen.
    """

    def __init__(self):
        super().__init__(
            "MutableIndex is closed: close() handed back its database, "
            "frame and caches — reopen it with "
            "repro.open_index(path, database, mutable=True)"
        )
