"""Word-aligned bitset deltas — the coordinator's broadcast currency.

After each greedy selection the coordinator must tell every shard frontier
which relevant graphs just became covered.  Shipping the id list replays
the per-id Python cost on every shard; shipping the full covered bitset
wastes words that did not change.  A :class:`BitsetDelta` is the sparse
middle ground: only the *nonzero words* of the newly-covered set, as
``(word index, word value)`` pairs.  Frontiers consume it directly —
Theorem 7 decrements become a popcount over the delta's words gathered
from the node's relevant bitmap, with no per-id work and no full-width
temporary.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.bitset import kernel


class BitsetDelta:
    """Sparse view of a bitset: its nonzero words only."""

    __slots__ = ("indices", "values", "nbits")

    def __init__(self, indices: np.ndarray, values: np.ndarray, nbits: int):
        self.indices = indices
        self.values = values
        self.nbits = int(nbits)

    @classmethod
    def from_words(cls, words: np.ndarray, nbits: int) -> "BitsetDelta":
        indices = np.flatnonzero(words)
        delta = cls(indices, words[indices], nbits)
        obs.counter("bitset.words", int(indices.size))
        return delta

    @property
    def num_words(self) -> int:
        """Words actually shipped (vs ``ceil(nbits / 64)`` for the dense set)."""
        return int(self.indices.size)

    def intersection_count(self, row: np.ndarray) -> int:
        """``|row ∩ delta|`` touching only the delta's words."""
        if not self.indices.size:
            return 0
        obs.counter("bitset.popcounts")
        return int(kernel.word_counts(row[self.indices] & self.values).sum())

    def test(self, position: int) -> bool:
        """Membership of one universe position in the delta."""
        position = int(position)
        word = np.searchsorted(self.indices, position >> 6)
        if word >= self.indices.size or self.indices[word] != position >> 6:
            return False
        return bool(
            (self.values[word] >> np.uint64(position & 63)) & np.uint64(1)
        )

    def to_words(self) -> np.ndarray:
        """Densify back to a full word array."""
        words = kernel.zeros(self.nbits)
        words[self.indices] = self.values
        return words

    def popcount(self) -> int:
        if not self.values.size:
            return 0
        return int(kernel.word_counts(self.values).sum())

    def __repr__(self) -> str:
        return f"<BitsetDelta words={self.num_words}/{kernel.num_words(self.nbits)}>"
