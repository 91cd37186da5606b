"""Per-object data that does not keep its object alive.

:class:`IdWeakMap` keys an entry by ``id(obj)`` for speed and holds the
object through a weak reference: a lookup only counts when the referent
*is* the object asked about, so a collected object's recycled ``id()``
never meets its predecessor's data, and the entry leaves when its object
is collected.  Objects that cannot be hashed (graphs) or must not be
pinned (throw-away query graphs) can carry derived data this way.
"""

from __future__ import annotations

import threading
import weakref


class IdWeakMap:
    """``obj → factory(obj)`` keyed by identity, holding ``obj`` weakly.
    ``map[obj]`` makes the value once; creation is serialized, so a
    factory may mutate state shared by its calls."""

    def __init__(self, factory):
        self._factory = factory
        self._entries: dict[int, tuple[weakref.ref, object]] = {}
        self._lock = threading.Lock()

    def __getitem__(self, obj):
        entry = self._entries.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        with self._lock:
            key = id(obj)
            entry = self._entries.get(key)
            if entry is not None and entry[0]() is obj:
                return entry[1]
            value = self._factory(obj)

            def _evict(ref, _entries=self._entries, _key=key):
                # A newer object may already hold the recycled id.
                if _entries.get(_key, (None,))[0] is ref:
                    _entries.pop(_key, None)

            self._entries[key] = (weakref.ref(obj, _evict), value)
            return value

    def __len__(self) -> int:
        return len(self._entries)

    def referents(self) -> list:
        """The object of every entry (``None`` for one collected but not
        yet evicted)."""
        return [ref() for ref, _ in list(self._entries.values())]

    def clear(self) -> None:
        self._entries.clear()
