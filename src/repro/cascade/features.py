"""Vectorized per-graph features backing the assignment lower bound.

The bound needs, for every graph in the attached list, its node count,
label histogram and sorted degree sequence.  :class:`StageFeatures`
materializes those once per engine as dense matrices so a whole
candidate block is bounded with a handful of numpy reductions instead of
a Python loop.

The cache grows monotonically: live mutations append graphs to the
engine's list, and :meth:`sync` extends the matrices (new label columns,
wider degree rows) without touching existing rows.  Row ``i`` always
describes ``graphs[i]`` at the time it was first seen — graphs are
immutable in this codebase, so rows never go stale.
"""

from __future__ import annotations

import numpy as np


class StageFeatures:
    """Dense (sizes, label counts, sorted degrees) over a graph list."""

    def __init__(self):
        self._vocab: dict[str, int] = {}
        self.count = 0
        self.sizes = np.zeros(0, dtype=np.float64)
        self.label_counts = np.zeros((0, 0), dtype=np.float64)
        # Degree sequences sorted descending, zero-padded to the widest
        # graph seen; padding with zeros keeps the sorted order, so the
        # row is exactly the padded sorted degree multiset.
        self.deg_sorted = np.zeros((0, 0), dtype=np.float64)

    def sync(self, graphs) -> None:
        """Extend the matrices to cover ``graphs`` (idempotent)."""
        total = len(graphs)
        if total <= self.count:
            return
        fresh = graphs[self.count:total]
        rows = [self._profile(g) for g in fresh]
        width_deg = max(
            [self.deg_sorted.shape[1]] + [len(deg) for _, _, deg in rows]
        )
        for label in {lab for _, hist, _ in rows for lab in hist}:
            if label not in self._vocab:
                self._vocab[label] = len(self._vocab)
        width_lab = len(self._vocab)

        sizes = np.zeros(total, dtype=np.float64)
        label_counts = np.zeros((total, width_lab), dtype=np.float64)
        deg_sorted = np.zeros((total, width_deg), dtype=np.float64)
        sizes[: self.count] = self.sizes
        label_counts[: self.count, : self.label_counts.shape[1]] = self.label_counts
        deg_sorted[: self.count, : self.deg_sorted.shape[1]] = self.deg_sorted
        for offset, (size, hist, deg) in enumerate(rows):
            row = self.count + offset
            sizes[row] = size
            for label, n in hist.items():
                label_counts[row, self._vocab[label]] = n
            if deg:
                deg_sorted[row, : len(deg)] = deg
        self.sizes = sizes
        self.label_counts = label_counts
        self.deg_sorted = deg_sorted
        self.count = total

    @staticmethod
    def _profile(graph):
        size = float(graph.num_nodes)
        hist = dict(graph.label_histogram())
        deg = sorted(graph.degrees(), reverse=True)
        return size, hist, deg

    # -- source-side projections --------------------------------------
    def source_row(self, graph):
        """``(size, dense label counts, padded degree row, overflow)`` for
        an arbitrary query graph.

        Labels outside the cached vocabulary cannot match any target
        label, so dropping them only shrinks the common-label term —
        the bound stays a valid lower bound and is exact whenever the
        source's labels all appear in the vocabulary.  Degrees beyond the
        cached width match against implicit zero padding; their sum is
        returned as ``overflow`` and added to every L1 term.
        """
        size, hist, deg = self._profile(graph)
        counts = np.zeros(self.label_counts.shape[1], dtype=np.float64)
        for label, n in hist.items():
            column = self._vocab.get(label)
            if column is not None:
                counts[column] = n
        width = self.deg_sorted.shape[1]
        deg_row = np.zeros(width, dtype=np.float64)
        head = deg[:width]
        if head:
            deg_row[: len(head)] = head
        overflow = float(sum(deg[width:]))
        return size, counts, deg_row, overflow

    # -- the vectorized lower bound -----------------------------------
    def assignment_lb(self, source_graph, target_rows: np.ndarray) -> np.ndarray:
        """:func:`repro.ged.bounds.assignment_lower_bound` of the source
        against every target row: label-histogram matching cost
        ``max(|g|,|h|) − Σ_l min(c_g, c_h)`` plus half the L1 distance
        between sorted degree sequences."""
        size, counts, deg_row, overflow = self.source_row(source_graph)
        common = np.minimum(self.label_counts[target_rows], counts).sum(axis=1)
        label = np.maximum(self.sizes[target_rows], size) - common
        l1 = np.abs(self.deg_sorted[target_rows] - deg_row).sum(axis=1) + overflow
        return label + 0.5 * l1
