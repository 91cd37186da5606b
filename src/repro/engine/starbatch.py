"""Batched star-distance evaluation — the engine's in-process fast path.

:class:`repro.ged.star.StarDistance` evaluates one pair at a time: build a
token vocabulary for the pair, densify both count matrices, take their L1
block, assemble the doubled ``(n1+n2)²`` Riesen–Bunke padded matrix and solve
the assignment.  When the engine evaluates a *batch* of pairs (index build,
neighborhood materialization), almost all of that work can be shared or
shrunk without changing a single output bit:

* **Persistent token registry** — branch tokens ``(edge label, neighbor
  label)`` are interned once per evaluator into integer columns; per-graph
  sparse profiles are cached and reused across every batch.
* **Overlap by indicator gather** — the per-vertex branch cost has the
  closed form ``(|deg_u − deg_v| + L1(c_u, c_v)) / 2 = max(deg_u, deg_v) −
  overlap(u, v)`` where ``overlap = Σ_tok min(c_u, c_v)``.  Expanding each
  token into *count levels* ``(tok, 1), …, (tok, c)`` turns the multiset
  intersection into a binary dot product.  The source graph keeps a small
  dense indicator over *its own* columns (cached on its profile); a batch's
  concatenated column list is mapped into it with one ``searchsorted``, and
  a running sum along the gathered block yields every source-vs-batch
  overlap at once — no per-call matrix objects, so a one-pair batch costs
  tens of microseconds, not hundreds.  All quantities are integer-valued,
  so the floats match the serial path exactly.
* **Reduced assignment** — the star ground cost satisfies ``cost(a, b) <
  cost(a, ε) + cost(ε, b)`` for every star pair (substitution is strictly
  cheaper than delete + insert), so the optimal padded assignment never
  pairs a deletion with an insertion and the ``(n1+n2)²`` problem collapses
  to a ``max(n1, n2)²`` one: pad the smaller side with null stars only.
  Same optimum, an ~8× smaller Hungarian problem.

Every cost entry is a multiple of 0.5 far below 2⁵³, so sums are exact and
the evaluator is **bit-identical** to ``StarDistance`` — the equivalence
tests assert ``==``, not ``approx``.
"""

from __future__ import annotations

import threading
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro import obs
from repro.ged.lsap import linear_sum_assignment
from repro.ged.metric import CachingDistance, CountingDistance
from repro.ged.star import StarDistance
from repro.graphs.graph import LabeledGraph


#: Batch graphs whose overlap block is materialized at once — bounds the
#: temporaries of a whole-database scan (index build) to a few megabytes.
_BLOCK_PROFILES = 256


class _SparseStarProfile:
    """Per-graph numeric star profile against a shared token registry."""

    __slots__ = (
        "graph", "indptr", "cols", "roots", "degrees", "own_cols", "indicator",
    )

    def __init__(self, g: LabeledGraph, token_ids: dict, root_ids: dict):
        n = g.num_nodes
        indptr = np.empty(n + 1, dtype=np.int64)
        indptr[0] = 0
        cols: list[int] = []
        roots = np.empty(n, dtype=np.int64)
        degrees = np.empty(n, dtype=np.float64)
        for v in range(n):
            label = g.node_label(v)
            code = root_ids.get(label)
            if code is None:
                code = root_ids[label] = len(root_ids)
            roots[v] = code
            counts: dict[tuple[str, str], int] = {}
            for u in g.neighbors(v):
                token = (g.edge_label(v, u), g.node_label(u))
                counts[token] = counts.get(token, 0) + 1
            degree = 0
            for token, count in counts.items():
                degree += count
                for level in range(1, count + 1):
                    key = (token[0], token[1], level)
                    col = token_ids.get(key)
                    if col is None:
                        col = token_ids[key] = len(token_ids)
                    cols.append(col)
            degrees[v] = float(degree)
            indptr[v + 1] = len(cols)
        self.graph = g  # strong ref: keeps the id()-keyed cache sound
        self.indptr = indptr
        self.cols = np.asarray(cols, dtype=np.int64)
        self.roots = roots
        self.degrees = degrees
        #: This graph's distinct columns (sorted), and the ``(n, |own_cols|
        #: + 1)`` 0/1 row block over them — the last column stays zero and
        #: absorbs every column the graph does not have.  Built the first
        #: time the graph is a batch *source*.
        self.own_cols: np.ndarray | None = None
        self.indicator: np.ndarray | None = None

    def source_block(self) -> tuple[np.ndarray, np.ndarray]:
        if self.indicator is None:
            own_cols = np.unique(self.cols)
            indicator = np.zeros(
                (len(self.roots), len(own_cols) + 1), dtype=np.uint8
            )
            rows = np.repeat(np.arange(len(self.roots)), np.diff(self.indptr))
            indicator[rows, np.searchsorted(own_cols, self.cols)] = 1
            self.own_cols, self.indicator = own_cols, indicator
        return self.own_cols, self.indicator


class BatchStarEvaluator:
    """Batch evaluator producing bit-identical :class:`StarDistance` values.

    One evaluator instance accumulates its token/root registries and graph
    profiles across calls, so repeated batches against the same database —
    the dominant access pattern of every index build — skip straight to the
    overlap matmul and the reduced assignments.
    """

    def __init__(self, normalized: bool = False):
        self.normalized = normalized
        self._token_ids: dict[tuple[str, str, int], int] = {}
        self._root_ids: dict[str, int] = {}
        self._profiles: dict[int, _SparseStarProfile] = {}
        # Serializes registry growth.  Concurrent service queries share one
        # evaluator; unlocked interning could hand two tokens the same
        # column (``len(dict)`` read + insert is not atomic), silently
        # corrupting every later overlap.
        self._registry_lock = threading.Lock()

    def _profile(self, g: LabeledGraph) -> _SparseStarProfile:
        key = id(g)
        profile = self._profiles.get(key)
        if profile is None:
            with self._registry_lock:
                profile = self._profiles.get(key)
                if profile is None:
                    profile = _SparseStarProfile(
                        g, self._token_ids, self._root_ids
                    )
                    self._profiles[key] = profile
        return profile

    def _overlap(
        self, source: _SparseStarProfile, profiles: Sequence[_SparseStarProfile]
    ) -> np.ndarray | float:
        """``overlap(u, v)`` for every source vertex ``u`` against every
        vertex ``v`` of ``profiles`` (concatenated), as one dense block."""
        own_cols, indicator = source.source_block()
        cols = np.concatenate([p.cols for p in profiles])
        starts = accumulate((len(p.cols) for p in profiles), initial=0)
        ends = np.concatenate(
            [[0]] + [p.indptr[1:] + start for p, start in zip(profiles, starts)]
        )
        absent = len(own_cols)
        if not absent or not len(cols):
            return 0.0
        slot = np.searchsorted(own_cols, cols)
        slot[slot == absent] = 0
        slot = np.where(own_cols[slot] == cols, slot, absent)
        # Each batch vertex owns a contiguous run of ``cols``: its overlap
        # with a source vertex is the run's sum of gathered 0/1 entries,
        # read off a running total (exact — small integers in float64).
        running = np.zeros((len(source.roots), len(cols) + 1))
        np.cumsum(indicator[:, slot], axis=1, out=running[:, 1:])
        return running[:, ends[1:]] - running[:, ends[:-1]]

    def one_to_many(
        self, g: LabeledGraph, others: Sequence[LabeledGraph]
    ) -> np.ndarray:
        """``[d(g, h) for h in others]`` as one batch."""
        out = np.empty(len(others), dtype=np.float64)
        if not len(others):
            return out
        obs.counter("ged.star.batch_calls")
        obs.counter("ged.star.batch_pairs", len(others))
        source = self._profile(g)
        profiles = [self._profile(h) for h in others]
        n_g = len(source.roots)
        if n_g == 0:
            # Serial path: all-insertion assignment, Σ (1 + deg).
            for idx, p in enumerate(profiles):
                out[idx] = float(np.sum(1.0 + p.degrees)) if len(p.roots) else 0.0
            return self._normalize_many(out, source, profiles)
        deletion = 1.0 + source.degrees
        for start in range(0, len(profiles), _BLOCK_PROFILES):
            block = profiles[start:start + _BLOCK_PROFILES]
            offsets = list(accumulate((len(p.roots) for p in block), initial=0))
            degrees_all = np.concatenate([p.degrees for p in block])
            roots_all = np.concatenate([p.roots for p in block])
            cost_block = (
                (source.roots[:, None] != roots_all[None, :]).astype(np.float64)
                + np.maximum(source.degrees[:, None], degrees_all[None, :])
                - self._overlap(source, block)
            )
            for idx, p in enumerate(block):
                n_h = offsets[idx + 1] - offsets[idx]
                pairwise = cost_block[:, offsets[idx]:offsets[idx + 1]]
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
                out[start + idx] = float(matrix[rows, cols].sum())
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


def unwrap_distance(distance):
    """Strip :class:`CountingDistance`/:class:`CachingDistance` layers."""
    while isinstance(distance, (CountingDistance, CachingDistance)):
        distance = distance.inner
    return distance


def batch_evaluator_for(distance) -> BatchStarEvaluator | None:
    """A batch fast path for ``distance``, or ``None`` if it has none.

    Only a (possibly counting/caching-wrapped) :class:`StarDistance` has a
    vectorized evaluator today; every other metric falls back to per-pair
    calls.
    """
    base = unwrap_distance(distance)
    if type(base) is StarDistance:
        return BatchStarEvaluator(normalized=base.normalized)
    return None
