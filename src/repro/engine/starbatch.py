"""Batched star-distance evaluation — the engine's in-process fast path.

:class:`repro.ged.star.StarDistance` evaluates one pair at a time: build a
token vocabulary for the pair, densify both count matrices, take their L1
block, assemble the doubled ``(n1+n2)²`` Riesen–Bunke padded matrix and solve
the assignment.  When the engine evaluates a *batch* of pairs (index build,
neighborhood materialization), almost all of that work can be shared or
shrunk without changing a single output bit:

* **Persistent token registry** — branch tokens ``(edge label, neighbor
  label)`` are interned once per evaluator into integer columns; per-graph
  profiles are cached and reused across every batch.
* **Overlap by popcount** — the per-vertex branch cost has the closed form
  ``(|deg_u − deg_v| + L1(c_u, c_v)) / 2 = max(deg_u, deg_v) − overlap(u,
  v)`` where ``overlap = Σ_tok min(c_u, c_v)``.  Expanding each token into
  *count levels* ``(tok, 1), …, (tok, c)`` turns a star's branch multiset
  into a *set* of columns, which a profile stores as one bit each: an
  ``(n, W)`` block of uint64 words per graph, ``W = ⌈columns / 64⌉`` (one
  word on dud, three on dblp).  The multiset intersection is then
  ``popcount(mask_u & mask_v)``, and a whole source-vs-batch cost block is
  one broadcast ``AND`` and one word popcount per word column — no
  per-call matrix objects, so a one-pair batch costs tens of
  microseconds, not hundreds.  The registry grows lazily: a profile packed
  before it crossed a word boundary is zero-extended when it first meets
  a wider source.  All quantities are integer-valued, so the floats match
  the serial path exactly.
* **Reduced assignment** — the star ground cost satisfies ``cost(a, b) <
  cost(a, ε) + cost(ε, b)`` for every star pair (substitution is strictly
  cheaper than delete + insert), so the optimal padded assignment never
  pairs a deletion with an insertion and the ``(n1+n2)²`` problem collapses
  to a ``max(n1, n2)²`` one: pad the smaller side with null stars only.
  Same optimum, an ~8× smaller Hungarian problem.  A long batch is walked
  in target-size order, so each run of equal-sized targets is padded as
  one ``(count, size, size)`` tensor and only the solver call is left in a
  Python loop; short batches pad pair by pair.

Every cost entry is a multiple of 0.5 far below 2⁵³, so sums are exact and
the evaluator is **bit-identical** to ``StarDistance`` — the equivalence
tests assert ``==``, not ``approx``.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro import obs
from repro.bitset.kernel import num_words, word_counts
from repro.ged.lsap import linear_sum_assignment
from repro.graphs.graph import LabeledGraph
from repro.utils.idweak import IdWeakMap


#: Batch graphs whose overlap block is materialized at once — bounds the
#: temporaries of a whole-database scan (index build) to a few megabytes.
_BLOCK_PROFILES = 256


class _SparseStarProfile:
    """Per-graph numeric star profile against a shared token registry."""

    __slots__ = ("roots", "degrees", "masks")

    def __init__(self, g: LabeledGraph, token_ids: dict, root_ids: dict):
        n = g.num_nodes
        roots = np.empty(n, dtype=np.int64)
        degrees = np.empty(n, dtype=np.float64)
        stars: list[int] = []
        for v, (label, branches) in enumerate(zip(g.node_labels, g.branch_tokens())):
            code = root_ids.get(label)
            if code is None:
                code = root_ids[label] = len(root_ids)
            roots[v] = code
            # The k-th copy of a branch token is its own column
            # ``(token, k)``: a star becomes a *set* of columns, one bit each.
            counts: dict[tuple[str, str], int] = {}
            star = 0
            for token in branches:
                level = counts[token] = counts.get(token, 0) + 1
                col = token_ids.get((token, level))
                if col is None:
                    col = token_ids[token, level] = len(token_ids)
                star |= 1 << col
            degrees[v] = len(branches)
            stars.append(star)
        self.roots = roots
        self.degrees = degrees
        #: ``(n, W)`` uint64 words, W covering the registry as it stood when
        #: this graph was packed: bit ``c`` of row ``v`` is set iff vertex
        #: ``v`` carries level-expanded token column ``c``.
        nbytes = 8 * num_words(len(token_ids))
        self.masks = np.frombuffer(
            b"".join(star.to_bytes(nbytes, "little") for star in stars),
            dtype="<u8",
        ).reshape(n, nbytes // 8)

    def words(self, width: int) -> np.ndarray:
        """The masks at ``width`` words.  A profile packed before the
        registry crossed a word boundary is widened with zero words (kept);
        one packed after it is cut — the words cut are ANDed with nothing."""
        masks = self.masks  # read once: another thread may widen it
        if masks.shape[1] == width:
            return masks
        if masks.shape[1] < width:
            wider = np.zeros((len(masks), width), dtype=np.uint64)
            wider[:, :masks.shape[1]] = masks
            self.masks = masks = wider
        return masks[:, :width]


class BatchStarEvaluator:
    """Batch evaluator producing bit-identical :class:`StarDistance` values.

    One evaluator instance accumulates its token/root registries and graph
    profiles across calls, so repeated batches against the same database —
    the dominant access pattern of every index build — skip straight to the
    mask ``AND`` and the reduced assignments.
    """

    def __init__(self, normalized: bool = False):
        self.normalized = normalized
        self._token_ids: dict[tuple[tuple[str, str], int], int] = {}
        self._root_ids: dict[str, int] = {}
        # Weakly keyed: a throw-away query graph is not pinned and a
        # recycled id() never meets its predecessor's profile.  Creation is
        # serialized by the map: concurrent service queries share one
        # evaluator, and unlocked interning could hand two tokens the same
        # column (``len(dict)`` read + insert is not atomic), silently
        # corrupting every later overlap.
        self._profiles = IdWeakMap(partial(
            _SparseStarProfile, token_ids=self._token_ids, root_ids=self._root_ids
        ))

    def _costs(self, source: _SparseStarProfile, block):
        """Star ground cost of every source vertex against every vertex of
        ``block`` (concatenated), and the concatenated degrees: ``max(deg_u,
        deg_v) + [root_u ≠ root_v] − popcount(mask_u & mask_v)``."""
        degrees = np.concatenate([p.degrees for p in block])
        roots = np.concatenate([p.roots for p in block])
        own = source.masks  # read once, as above
        width = own.shape[1]
        masks = np.concatenate([p.words(width) for p in block])
        cost = np.maximum(source.degrees[:, None], degrees)
        cost += source.roots[:, None] != roots
        for word in range(width):
            cost -= word_counts(own[:, word, None] & masks[:, word])
        return cost, degrees

    def one_to_many(
        self, g: LabeledGraph, others: Sequence[LabeledGraph]
    ) -> np.ndarray:
        """``[d(g, h) for h in others]`` as one batch."""
        out = np.empty(len(others), dtype=np.float64)
        if not len(others):
            return out
        obs.counter("ged.star.batch_calls")
        obs.counter("ged.star.batch_pairs", len(others))
        source = self._profiles[g]
        profiles = [self._profiles[h] for h in others]
        n_g = len(source.roots)
        if n_g == 0:
            # Serial path: all-insertion assignment, Σ (1 + deg).
            for idx, p in enumerate(profiles):
                out[idx] = float(np.sum(1.0 + p.degrees)) if len(p.roots) else 0.0
            return self._normalize_many(out, source, profiles)
        deletion = 1.0 + source.degrees
        if len(profiles) <= 64:
            # A query's batches of ~2, up to where the two paths cross
            # (runs of ~3 equal sizes; EXPERIMENTS.md, "The kernel's
            # price"): below it grouping costs more than the plain
            # paddings it replaces.
            cost, _ = self._costs(source, profiles)
            offset = 0
            for idx, p in enumerate(profiles):
                n_h = len(p.roots)
                pairwise = cost[:, offset:offset + n_h]
                offset += n_h
                if n_g == n_h:
                    matrix = pairwise
                else:
                    # Pad the smaller side with null stars only.
                    size = max(n_g, n_h)
                    matrix = np.empty((size, size))
                    matrix[:n_g, :n_h] = pairwise
                    if n_g < n_h:
                        matrix[n_g:, :] = 1.0 + p.degrees
                    else:
                        matrix[:, n_h:] = deletion[:, None]
                rows, cols = linear_sum_assignment(matrix)
                out[idx] = matrix[rows, cols].sum()
            return self._normalize_many(out, source, profiles)
        # Targets in size order: a block then holds a few long runs of one
        # size, each padded as one (count, size, size) tensor — only the
        # solver call stays inside a Python loop.
        sizes = np.fromiter((len(p.roots) for p in profiles), np.intp, len(out))
        order = np.argsort(sizes, kind="stable")
        for start in range(0, len(order), _BLOCK_PROFILES):
            chunk = order[start:start + _BLOCK_PROFILES]
            cost, degrees = self._costs(
                source, [profiles[idx] for idx in chunk.tolist()]
            )
            lo = column = 0
            for n_h, count in zip(*np.unique(sizes[chunk], return_counts=True)):
                span = slice(column, column + count * n_h)
                size = max(n_g, n_h)
                tensor = np.empty((count, size, size))
                tensor[:, :n_g, :n_h] = (
                    cost[:, span].reshape(n_g, count, n_h).transpose(1, 0, 2)
                )
                if n_g < n_h:
                    tensor[:, n_g:, :] = (1.0 + degrees[span]).reshape(count, 1, n_h)
                else:  # nothing to fill when the sizes are equal
                    tensor[:, :, n_h:] = deletion[:, None]
                chosen = np.concatenate(
                    [linear_sum_assignment(matrix)[1] for matrix in tensor]
                ).reshape(count, size, 1)
                out[chunk[lo:lo + count]] = np.take_along_axis(
                    tensor, chosen, axis=2
                ).sum(axis=(1, 2))
                lo += count
                column = span.stop
        return self._normalize_many(out, source, profiles)

    def _normalize_many(self, values, source, profiles) -> np.ndarray:
        if not self.normalized:
            return values
        source_max = float(source.degrees.max()) if len(source.degrees) else 0.0
        for idx, p in enumerate(profiles):
            other_max = float(p.degrees.max()) if len(p.degrees) else 0.0
            values[idx] = values[idx] / max(4.0, max(source_max, other_max) + 1.0)
        return values

    def __call__(self, g1: LabeledGraph, g2: LabeledGraph) -> float:
        return float(self.one_to_many(g1, [g2])[0])
