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

