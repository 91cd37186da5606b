"""Property tests: packed-bitset kernel vs Python set semantics.

Every kernel primitive is checked against the frozenset arithmetic it
replaces, over id universes up to 10^4 including the word-boundary sizes
(63/64/65 bits) where packing bugs live.  The bitset hot paths are only
allowed to be *fast* — any semantic daylight between a kernel op and the
equivalent set expression is a bug the dual-run gates would eventually
surface; these tests pin it at the primitive level.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitset import BitsetUniverse, kernel

#: Word-boundary universe sizes plus small/large spot checks.
BOUNDARY_SIZES = (1, 63, 64, 65, 127, 128, 129)


def subset_strategy(max_size=10_000):
    """(nbits, sorted position array) pairs, biased toward boundaries."""
    size = st.one_of(
        st.sampled_from(BOUNDARY_SIZES),
        st.integers(min_value=1, max_value=max_size),
    )
    return size.flatmap(
        lambda nbits: st.tuples(
            st.just(nbits),
            st.lists(
                st.integers(min_value=0, max_value=nbits - 1),
                unique=True, max_size=min(nbits, 600),
            ).map(sorted),
        )
    )


def as_set(nbits, positions):
    return set(int(p) for p in positions)


@settings(max_examples=80, deadline=None)
@given(subset_strategy())
def test_roundtrip_and_popcount(case):
    nbits, positions = case
    words = kernel.from_positions(np.array(positions, dtype=np.int64), nbits)
    assert words.shape == (kernel.num_words(nbits),)
    assert list(kernel.to_positions(words)) == positions
    assert kernel.popcount(words) == len(positions)
    # The public per-word popcount (also the star kernel's) keeps the shape.
    assert kernel.word_counts(words).tolist() == [
        bin(int(word)).count("1") for word in words
    ]
    for p in range(min(nbits, 130)):
        assert kernel.test_bit(words, p) == (p in as_set(nbits, positions))


@settings(max_examples=80, deadline=None)
@given(subset_strategy())
def test_set_algebra_matches_frozensets(case):
    nbits, positions = case
    rng = np.random.default_rng(len(positions) * 7919 + nbits)
    other = np.flatnonzero(rng.random(nbits) < 0.3).astype(np.int64)
    a = kernel.from_positions(np.array(positions, dtype=np.int64), nbits)
    b = kernel.from_positions(other, nbits)
    sa, sb = as_set(nbits, positions), as_set(nbits, other)

    assert set(kernel.to_positions(kernel.intersection(a, b))) == sa & sb
    assert kernel.intersection_count(a, b) == len(sa & sb)
    assert set(kernel.to_positions(kernel.andnot(a, b))) == sa - sb
    assert kernel.uncovered_count(a, b) == len(sa - sb)
    union = a.copy()
    kernel.union_into(union, b)
    assert set(kernel.to_positions(union)) == sa | sb
    assert kernel.equals(a, a.copy())
    assert kernel.equals(a, b) == (sa == sb)


@settings(max_examples=60, deadline=None)
@given(subset_strategy(max_size=2_000), st.integers(2, 8))
def test_batch_uncovered_counts(case, rows):
    nbits, positions = case
    rng = np.random.default_rng(nbits * 31 + rows)
    matrix = kernel.zeros_matrix(rows, nbits)
    row_sets = []
    for r in range(rows):
        members = np.flatnonzero(rng.random(nbits) < 0.25).astype(np.int64)
        matrix[r] = kernel.from_positions(members, nbits)
        row_sets.append(set(int(p) for p in members))
    covered = kernel.from_positions(
        np.array(positions, dtype=np.int64), nbits
    )
    covered_set = as_set(nbits, positions)

    counts = kernel.uncovered_counts(matrix, covered)
    assert counts.tolist() == [len(s - covered_set) for s in row_sets]
    assert kernel.popcount_rows(matrix).tolist() == [
        len(s) for s in row_sets
    ]


@settings(max_examples=60, deadline=None)
@given(subset_strategy(max_size=2_000))
def test_bit_mutation_and_queries(case):
    nbits, positions = case
    words = kernel.zeros(nbits)
    for p in positions:
        kernel.set_bit(words, p)
    assert list(kernel.to_positions(words)) == positions
    reference = as_set(nbits, positions)
    assert kernel.first_set(words) == (min(reference) if reference else -1)
    probes = np.arange(0, nbits, max(1, nbits // 97), dtype=np.int64)
    got = kernel.test_positions(words, probes)
    assert got.tolist() == [int(p) in reference for p in probes]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 10_000), unique=True, min_size=1,
                max_size=400).map(sorted))
def test_universe_codec(ids):
    universe = BitsetUniverse(np.array(ids, dtype=np.int64))
    words = universe.encode_ids(np.array(ids, dtype=np.int64))
    assert kernel.popcount(words) == len(ids)
    assert universe.decode_frozenset(words) == frozenset(ids)
    assert universe.min_id(words, -1) == min(ids)
    assert universe.min_id(universe.empty(), -1) == -1
    # member_positions drops non-members, keeps members, vectorized.
    probe = np.array(sorted(set(ids) | {10_001, 10_002}), dtype=np.int64)
    got = universe.member_positions(probe)
    assert [int(universe.ids[p]) for p in got] == ids


def test_word_boundary_edges():
    for nbits in BOUNDARY_SIZES:
        full = kernel.full(nbits)
        assert kernel.popcount(full) == nbits
        assert list(kernel.to_positions(full)) == list(range(nbits))
        # The padding bits beyond nbits must stay zero after every op.
        trailing = kernel.andnot(full, kernel.zeros(nbits))
        if nbits % kernel.WORD_BITS:
            assert int(trailing[-1]) >> (nbits % kernel.WORD_BITS) == 0
        empty = kernel.zeros(nbits)
        assert kernel.popcount(empty) == 0
        assert kernel.first_set(empty) == -1
        assert kernel.uncovered_count(full, full) == 0
        assert kernel.uncovered_count(full, empty) == nbits


def test_positions_of_rejects_foreign_ids():
    universe = BitsetUniverse(np.array([2, 5, 9], dtype=np.int64))
    with pytest.raises(ValueError):
        universe.positions_of(np.array([2, 4], dtype=np.int64))
