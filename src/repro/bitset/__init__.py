"""repro.bitset — packed uint64 bitset kernel for the coverage hot path.

Two pieces:

* :mod:`repro.bitset.kernel` — word-level set algebra (union, difference,
  vectorized popcounts, batch uncovered counts) over little-endian uint64
  arrays;
* :class:`~repro.bitset.universe.BitsetUniverse` — the frozen id ↔ bit
  position mapping that makes bitsets from different engines
  layout-compatible for one query.

The kernel is the storage layer under :mod:`repro.core.greedy`, the
NB-Index :class:`~repro.index.nbindex.QuerySession`, and the sharded
coordinator; all of them remain bit-identical to the per-id set-based
implementations they replaced (the dual-run gate and its set-based oracle
are ``tests/test_hotpath_identity.py``).
"""

from repro.bitset import kernel
from repro.bitset.kernel import (
    WORD_BITS,
    andnot,
    equals,
    first_set,
    from_positions,
    full,
    intersection,
    intersection_count,
    num_words,
    popcount,
    popcount_rows,
    set_bit,
    test_bit,
    test_positions,
    to_positions,
    uncovered_count,
    uncovered_counts,
    union_into,
    word_counts,
    zeros,
    zeros_matrix,
)
from repro.bitset.universe import BitsetUniverse

__all__ = [
    "WORD_BITS",
    "BitsetUniverse",
    "kernel",
    "andnot",
    "equals",
    "first_set",
    "from_positions",
    "full",
    "intersection",
    "intersection_count",
    "num_words",
    "popcount",
    "popcount_rows",
    "set_bit",
    "test_bit",
    "test_positions",
    "to_positions",
    "uncovered_count",
    "uncovered_counts",
    "union_into",
    "word_counts",
    "zeros",
    "zeros_matrix",
]
