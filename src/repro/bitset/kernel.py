"""Packed-bitset primitives: sets of small integers as uint64 word arrays.

A set over a universe of ``n`` positions is stored as ``ceil(n / 64)``
little-endian uint64 words — position ``p`` lives in word ``p >> 6`` at bit
``p & 63``.  Set algebra then becomes word-parallel bitwise arithmetic:
union is ``|``, difference is ``& ~``, and cardinality is a vectorized
popcount.  The coverage bookkeeping of the greedy hot path (marginal gains,
uncovered-member counts, foreign-uncovered counts) reduces to exactly
these operations, so a ``k``-round greedy over ``R`` relevant graphs costs
``O(k · R · R/64)`` word operations in numpy instead of ``O(k · R · |N̂|)``
Python set-element visits — the order-of-magnitude the MSQ-Index line of
work gets from succinct bit-level structures.

Everything here is layout-stable and deterministic: the same member set
always produces the same words, so engines built on this kernel stay
bit-identical to their set-based references (enforced by
``tests/test_bitset.py`` property tests and the dual-run gate in
``tests/test_hotpath_identity.py``).

The batch entry points report ``bitset.words`` (words touched) and
``bitset.popcounts`` (rows counted) through :mod:`repro.obs`; with
observability off these are no-ops.
"""

from __future__ import annotations

import numpy as np

from repro import obs

#: Bits per storage word.
WORD_BITS = 64
_WORD_SHIFT = 6
_WORD_MASK = 63
_ONE = np.uint64(1)
_U64_63 = np.uint64(63)

#: ``word_counts(words)`` — set bits of every uint64 word, elementwise (same
#: shape, small unsigned counts).  The repo's one popcount: the coverage
#: primitives below and the star kernel's overlap both go through it.
if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    word_counts = np.bitwise_count
else:  # pragma: no cover - exercised only on numpy 1.x
    _BYTE_COUNTS = np.array(
        [bin(b).count("1") for b in range(256)], dtype=np.uint8
    )

    def word_counts(words: np.ndarray) -> np.ndarray:
        view = words.view(np.uint8)
        return (
            _BYTE_COUNTS[view]
            .reshape(words.shape + (8,))
            .sum(axis=-1, dtype=np.uint64)
        )


def num_words(nbits: int) -> int:
    """Words needed for a universe of ``nbits`` positions."""
    return (int(nbits) + WORD_BITS - 1) >> _WORD_SHIFT


def zeros(nbits: int) -> np.ndarray:
    """The empty set over an ``nbits``-position universe."""
    return np.zeros(num_words(nbits), dtype=np.uint64)


def zeros_matrix(rows: int, nbits: int) -> np.ndarray:
    """``rows`` empty sets as one contiguous ``(rows, words)`` matrix."""
    out = np.zeros((int(rows), num_words(nbits)), dtype=np.uint64)
    obs.counter("bitset.words", out.size)
    return out


def full(nbits: int) -> np.ndarray:
    """The full set: every position below ``nbits``, trailing bits clear."""
    nbits = int(nbits)
    out = np.full(num_words(nbits), np.uint64(0xFFFFFFFFFFFFFFFF))
    tail = nbits & _WORD_MASK
    if out.size and tail:
        out[-1] = (_ONE << np.uint64(tail)) - _ONE
    return out


def from_positions(positions, nbits: int) -> np.ndarray:
    """Pack an iterable/array of positions into words."""
    words = zeros(nbits)
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size:
        bits = _ONE << (positions.astype(np.uint64) & _U64_63)
        np.bitwise_or.at(words, positions >> _WORD_SHIFT, bits)
    return words


def to_positions(words: np.ndarray) -> np.ndarray:
    """Member positions, ascending (inverse of :func:`from_positions`)."""
    if not words.size:
        return np.empty(0, dtype=np.int64)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return np.flatnonzero(bits).astype(np.int64)


def popcount(words: np.ndarray) -> int:
    """``|A|`` — total set bits."""
    obs.counter("bitset.popcounts")
    return int(word_counts(words).sum())


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row cardinalities of a ``(rows, words)`` matrix."""
    obs.counter("bitset.popcounts", matrix.shape[0])
    obs.counter("bitset.words", matrix.size)
    return word_counts(matrix).sum(axis=1, dtype=np.int64)


def uncovered_count(words: np.ndarray, covered: np.ndarray) -> int:
    """``|A \\ covered|`` — the marginal-gain primitive, one row."""
    obs.counter("bitset.popcounts")
    return int(word_counts(words & ~covered).sum())


def uncovered_counts(matrix: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """``|A_r \\ covered|`` for every row at once — the batch marginal-gain
    primitive behind the vectorized greedy argmax."""
    obs.counter("bitset.popcounts", matrix.shape[0])
    obs.counter("bitset.words", matrix.size)
    return word_counts(matrix & ~covered[None, :]).sum(axis=1, dtype=np.int64)


def union_into(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst |= src`` in place."""
    np.bitwise_or(dst, src, out=dst)


def andnot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A \\ B`` as a fresh word array."""
    return a & ~b


def intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A ∩ B`` as a fresh word array."""
    return a & b


def intersection_count(a: np.ndarray, b: np.ndarray) -> int:
    """``|A ∩ B|`` without materializing member lists."""
    obs.counter("bitset.popcounts")
    return int(word_counts(a & b).sum())


def set_bit(words: np.ndarray, position: int) -> None:
    """Add one position in place."""
    position = int(position)
    words[position >> _WORD_SHIFT] |= _ONE << np.uint64(position & _WORD_MASK)


def test_bit(words: np.ndarray, position: int) -> bool:
    """Membership of one position."""
    position = int(position)
    return bool(
        (words[position >> _WORD_SHIFT] >> np.uint64(position & _WORD_MASK))
        & _ONE
    )


def test_positions(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Vectorized membership mask for an array of positions."""
    positions = np.asarray(positions, dtype=np.int64)
    if not positions.size:
        return np.zeros(0, dtype=bool)
    shifts = positions.astype(np.uint64) & _U64_63
    return ((words[positions >> _WORD_SHIFT] >> shifts) & _ONE).astype(bool)


def first_set(words: np.ndarray) -> int:
    """Smallest member position, or ``-1`` for the empty set."""
    nonzero = np.flatnonzero(words)
    if not nonzero.size:
        return -1
    word_index = int(nonzero[0])
    word = int(words[word_index])
    return (word_index << _WORD_SHIFT) + (word & -word).bit_length() - 1


def equals(a: np.ndarray, b: np.ndarray) -> bool:
    """Set equality (same universe assumed)."""
    return bool(np.array_equal(a, b))
