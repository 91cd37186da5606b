"""The engine's pair cache: packed pair keys in two flat arrays.

A cached distance is one ``uint64`` key and one ``float64`` value (the
metric's exact dtype) in two flat buffers — ``array.array`` for the
pure-Python probe, viewed zero-copy by numpy for the batch probe — 21 to
27 B a pair, where a dict of tuple keys took ~134 B.

A pair's key packs the two graphs' *halves* as ``(lo + 1) << 32 | (hi + 1)``
and stores it multiplied by an odd constant mod 2⁶⁴ — a bijection, so the
stored key is its own hash.  A half is the graph's ``graph_id`` (below
2³¹), or for a graph without one a token from the upper half-space that
the graph holds for its lifetime and that is never handed out again: a
collected graph's ``id()`` may be recycled, its token is not, so a cached
distance is never served to another graph.  Once the 2³¹ − 1 tokens are
spent, :func:`half` raises :class:`Uncacheable` for a new id-less graph
and the engine evaluates that graph's pairs uncached.

:class:`PairTable` is an *ordered* hash table (Amble & Knuth, 1974):
linear probing with no wrap-around, a key's home is ``key * capacity >>
64``, and each run of occupied slots is kept in key order.  The occupied
slots therefore read in ascending key order across the whole table, a
lookup stops at the first slot holding a key ``>=`` its own — hit or miss,
in about two probes — and the layout depends only on the set of keys.
Growing is one merge of sorted arrays: in key order each key takes slot
``max(home, previous slot + 1)``, a running maximum.  The table grows
×1.25 past load 0.75, so the load stays in [0.6, 0.75].  A row of up to
``SMALL_BATCH`` pairs probes in pure Python (numpy's per-call cost is
larger there); a longer one with numpy.  There is no cap: evicting a pair
would change the exact-call counts.

The table is not locked; :class:`~repro.engine.DistanceEngine` calls it
under its cache lock.
"""

from __future__ import annotations

import array
import itertools

import numpy as np

from repro.utils.idweak import IdWeakMap

#: Halves at and above this are tokens; graph ids must stay below it.
TOKEN_BASE = 1 << 31
_TOKEN_END = (1 << 32) - 1  # a half + 1 must fit 32 bits
_ONES = (1 << 32) | 1  # + 1 on both halves of a packed pair
_MASK64 = (1 << 64) - 1
#: The key scramble: 2⁶⁴/φ² (odd).  The one packed value it maps to
#: ``_EMPTY`` has a high half above its low half, which no key has.
_SCRAMBLE = 0x61C8864680B583EB
_UNSCRAMBLE = pow(_SCRAMBLE, -1, 1 << 64)
_EMPTY = _MASK64

#: Batches up to this many keys probe in pure Python; longer ones with
#: numpy, every key at once, ``_WINDOW`` slots a round.  :meth:`PairTable.
#: values` returns one array, with a third fewer numpy calls than a scan's
#: positions and keys, so it crosses over at about half the length.
SMALL_BATCH = 96
SMALL_VALUES = 48
_WINDOW = 8
_STEPS = np.arange(_WINDOW)
_32 = np.uint64(32)
#: Slots past the last home a run may spill into; the last ``_WINDOW`` of
#: them stay empty, so every probe meets an empty slot in bounds.
_TAIL = 56 + _WINDOW
_MIN_CAPACITY = 64
_MAX_LOAD = 0.75
_GROWTH = 1.25

_next_token = itertools.count(TOKEN_BASE)


class Uncacheable(Exception):
    """A graph without ``graph_id`` met the end of the token space: the
    engine evaluates its pairs without the cache."""


def _draw(graph) -> int:
    token = next(_next_token)
    if token >= _TOKEN_END:
        raise Uncacheable
    return token


_tokens = IdWeakMap(_draw)


def half(graph) -> int:
    """``graph``'s half of a pair key."""
    graph_id = graph.graph_id
    if graph_id is None:  # drawn once, held weakly, never reused
        return _tokens[graph]
    if 0 <= graph_id < TOKEN_BASE:
        return graph_id
    raise ValueError(f"graph_id must be in [0, 2**31) to be cached, got {graph_id!r}")


def plain_ids(ids: list) -> bool:
    """Whether every one of ``ids`` is a graph id a key can hold, so
    that they are their graphs' halves."""
    return None not in ids and (not ids or (min(ids) >= 0 and max(ids) < TOKEN_BASE))


def halves(graphs) -> list[int]:
    """:func:`half` of every graph."""
    ids = [graph.graph_id for graph in graphs]
    return ids if plain_ids(ids) else [half(graph) for graph in graphs]


def pair_key(a: int, b: int) -> int:
    """The stored key of halves ``a`` and ``b`` (either order)."""
    packed = (a << 32 | b) if a <= b else (b << 32 | a)
    return (packed + _ONES) * _SCRAMBLE & _MASK64


def key_halves(key: int) -> tuple[int, int]:
    """The two halves of a stored key, smaller first."""
    packed = key * _UNSCRAMBLE & _MASK64
    return (packed >> 32) - 1, (packed & 0xFFFFFFFF) - 1


class PairTable:
    """Ordered open-addressing map from stored pair keys to ``float64``."""

    def __init__(self):
        self._allocate(_MIN_CAPACITY)

    def _allocate(self, capacity: int) -> None:
        self._capacity = capacity
        size = capacity + _TAIL
        self._keys = array.array("Q", [_EMPTY]) * size
        self._values = array.array("d", bytes(8 * size))
        self._key_view = np.frombuffer(self._keys, dtype=np.uint64)
        self._value_view = np.frombuffer(self._values, dtype=np.float64)
        self._stop = size - _WINDOW  # first slot never filled
        self._max_count = int(capacity * _MAX_LOAD)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def nbytes(self) -> int:
        """Bytes held by the two buffers."""
        return self._key_view.nbytes + self._value_view.nbytes

    def clear(self) -> None:
        """Drop every pair and shrink back to the smallest table."""
        self._allocate(_MIN_CAPACITY)

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, values)`` of every pair, in key order."""
        occupied = self._key_view != np.uint64(_EMPTY)
        return self._key_view[occupied], self._value_view[occupied]

    def _homes(self, keys: np.ndarray, capacity: int) -> np.ndarray:
        """``key * capacity >> 64`` of every key, in 64-bit halves."""
        capacity = np.uint64(capacity)
        low = ((keys & np.uint64(0xFFFFFFFF)) * capacity) >> np.uint64(32)
        homes = ((keys >> np.uint64(32)) * capacity + low) >> np.uint64(32)
        return homes.view(np.int64)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def get(self, key: int) -> float | None:
        """The value stored under ``key``, or ``None``."""
        keys = self._keys
        slot = key * self._capacity >> 64
        resident = keys[slot]
        while resident < key:
            slot += 1
            resident = keys[slot]
        return self._values[slot] if resident == key else None

    def scan(self, a: int, others, out) -> tuple[list[int], list[int]]:
        """Look up the pairs of half ``a`` with each half of ``others``:
        write each stored value to ``out[i]`` (an array or a list) and
        return the positions and keys of the others, ascending."""
        if len(others) > SMALL_BATCH:
            return self._scan_many(a, others, out)
        low, high = (a << 32) + _ONES, a + _ONES
        scramble, mask = _SCRAMBLE, _MASK64
        table, values, capacity = self._keys, self._values, self._capacity
        misses, keys = [], []
        for position, b in enumerate(others):
            key = (low + b if a <= b else (b << 32) + high) * scramble & mask
            slot = key * capacity >> 64
            resident = table[slot]
            while resident < key:
                slot += 1
                resident = table[slot]
            if resident == key:
                out[position] = values[slot]
            else:
                misses.append(position)
                keys.append(key)
        return misses, keys

    def values(self, a: int, others) -> np.ndarray:
        """The stored value of the pair of half ``a`` with each half of
        ``others``, NaN where none is stored."""
        if len(others) > SMALL_VALUES:
            keys, slots = self._locate(a, others)
            return np.where(self._key_view[slots] == keys, self._value_view[slots], np.nan)
        found = [None] * len(others)
        self.scan(a, others, found)
        return np.array(found, dtype=np.float64)  # None reads as NaN

    def _scan_many(self, a: int, others, out):
        keys, slots = self._locate(a, others)
        hit = self._key_view[slots] == keys
        if isinstance(out, np.ndarray):
            out[hit] = self._value_view[slots[hit]]
        else:
            found = self._value_view[slots[hit]].tolist()
            for position, value in zip(np.flatnonzero(hit).tolist(), found):
                out[position] = value
        miss = ~hit
        return np.flatnonzero(miss).tolist(), keys[miss].tolist()

    def _locate(self, a: int, others) -> tuple[np.ndarray, np.ndarray]:
        """The stored keys of ``a``'s pairs with ``others`` and their slots."""
        others = np.asarray(others, dtype=np.uint64)
        a = np.uint64(a)
        packed = (np.minimum(others, a) << _32) + np.maximum(others, a)
        keys = (packed + np.uint64(_ONES)) * np.uint64(_SCRAMBLE)
        return keys, self._slots(keys)

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """Where every key is, or would go: its home advanced past the
        smaller keys, a window of slots a round."""
        table = self._key_view
        slots = self._homes(keys, self._capacity)
        while True:
            window = table[slots[:, None] + _STEPS]
            smaller = np.count_nonzero(window < keys[:, None], axis=1)
            slots += smaller
            if smaller.max() < _WINDOW:
                return slots

    # ------------------------------------------------------------------
    # Inserts
    # ------------------------------------------------------------------
    def put(self, keys, values) -> None:
        """Store ``values[i]`` under ``keys[i]``.  A key already stored
        keeps its value (the metric is deterministic)."""
        count = len(keys)
        if self._count + count > self._max_count or (
            count > SMALL_BATCH and count * 16 > self._count
        ):
            self._merge(keys, values)
            return
        if isinstance(values, np.ndarray):
            values = values.tolist()
        table, stored, capacity = self._keys, self._values, self._capacity
        stop, added, empty = self._stop, 0, _EMPTY
        for index, key in enumerate(keys):
            slot = key * capacity >> 64
            resident = table[slot]
            while resident < key:
                slot += 1
                resident = table[slot]
            if resident == key:
                continue
            end = slot if resident == empty else table.index(empty, slot)
            if end >= stop:  # the run would spill into the reserve
                self._count += added
                self._merge(keys[index:], values[index:])
                return
            if end > slot:  # move the run's larger keys one slot on
                table[slot + 1:end + 1] = table[slot:end]
                stored[slot + 1:end + 1] = stored[slot:end]
            table[slot] = key
            stored[slot] = values[index]
            added += 1
        self._count += added

    def _merge(self, keys, values) -> None:
        """Re-lay the table with ``keys``/``values`` merged in, sized for
        load 0.6 of the new total: in key order each key takes slot
        ``max(home, previous slot + 1)``."""
        keys, first = np.unique(np.asarray(keys, dtype=np.uint64), return_index=True)
        values = np.asarray(values, dtype=np.float64)[first]
        old_keys, old_values = self.items()
        at = np.searchsorted(old_keys, keys)
        if len(old_keys):
            fresh = old_keys[np.minimum(at, len(old_keys) - 1)] != keys
            at, keys, values = at[fresh], keys[fresh], values[fresh]
        keys = np.insert(old_keys, at, keys)
        values = np.insert(old_values, at, values)
        del old_keys, old_values, at, first
        count = len(keys)
        capacity = max(_MIN_CAPACITY, int(count * _GROWTH / _MAX_LOAD))
        steps = np.arange(count)
        while True:
            slots = self._homes(keys, capacity) - steps
            np.maximum.accumulate(slots, out=slots)
            slots += steps
            if not count or slots[-1] < capacity + _TAIL - _WINDOW:
                break
            capacity = int(capacity * _GROWTH)
        self._allocate(capacity)
        self._key_view[slots] = keys
        self._value_view[slots] = values
        self._count = count
