"""Vectorized per-graph profiles behind the assignment lower bound.

For every graph of the attached list, :class:`StageFeatures` holds its
node count, label histogram and sorted degree sequence as dense integer
matrices in the smallest unsigned dtype that holds them (one byte per
entry on every bundled dataset), so a whole candidate block is bounded
with a handful of numpy reductions.  The star columns' fill
(:class:`repro.engine.starbatch.StarColumns`) writes the rows it fills,
from its flat label codes and degrees, over its label vocabulary; the
matrices only grow, and a row never changes.

A degree sequence is held as its *conjugate*: column ``t`` counts the
nodes of degree above ``t``.  Two degree sequences sorted descending and
zero-padded are as far apart in L1 as their conjugates — both sums count
the cells of one Young diagram outside the other — and the conjugate is
as wide as the largest degree (7 on dud), not as the widest graph (29).
"""

from __future__ import annotations

import numpy as np


def _grown(old: np.ndarray, shape: tuple, dtype=None) -> np.ndarray:
    """``old`` copied into the top-left corner of a zero ``shape`` array
    (``old`` itself when nothing changes)."""
    dtype = old.dtype if dtype is None else dtype
    if old.shape == shape and old.dtype == dtype:
        return old
    out = np.zeros(shape, dtype=dtype)
    out[tuple(slice(0, extent) for extent in old.shape)] = old
    return out


class StageFeatures:
    """Dense (sizes, label counts, degree conjugates) over a graph list."""

    def __init__(self, labels: dict[str, int]):
        self._labels = labels  # the fill's vocabulary: label → column
        self.sizes = np.zeros(0, dtype=np.uint8)
        self.label_counts = np.zeros((0, 0), dtype=np.uint8)
        #: ``[g, t]``: nodes of graph ``g`` with degree above ``t``.
        self.deg_above = np.zeros((0, 0), dtype=np.uint8)

    def write(self, count: int, rows: np.ndarray, sizes, codes, degrees) -> None:
        """Rows ``rows`` from their node counts and their flat per-node
        label codes and degrees, after growing the matrices to ``count``
        rows and to the new rows' labels, degrees and dtype."""
        top = int(sizes.max(initial=0))
        dtype = np.promote_types(self.sizes.dtype, np.min_scalar_type(top))
        count = max(count, len(self.sizes))
        width = max(self.deg_above.shape[1], int(degrees.max(initial=0)))
        self.sizes = _grown(self.sizes, (count,), dtype)
        self.label_counts = _grown(self.label_counts, (count, len(self._labels)), dtype)
        deg_above = _grown(self.deg_above, (count, width), dtype)
        self.sizes[rows] = sizes
        owner, labels = np.repeat(np.arange(len(rows)), sizes), self.label_counts.shape[1]
        counts = np.bincount(owner * labels + codes, minlength=len(rows) * labels)
        self.label_counts[rows] = counts.reshape(len(rows), labels)
        # Nodes per (row, degree), summed from the top degree down.
        per_degree = np.bincount(owner * (width + 1) + degrees, minlength=len(rows) * (width + 1))
        per_degree = per_degree.reshape(len(rows), width + 1)
        deg_above[rows] = per_degree[:, :0:-1].cumsum(axis=1)[:, ::-1]
        self.deg_above = deg_above

    def assignment_lb(self, source, target_rows: np.ndarray) -> np.ndarray:
        """:func:`repro.ged.bounds.assignment_lower_bound` of the source
        against every (filled) target row: ``max(|g|,|h|) − Σ_l min(c_g,
        c_h)`` plus half the L1 gap of the degree conjugates, summed in
        integers — every value is a multiple of 0.5, exact.  An integer
        source is its own row (in the narrowest signed type that holds
        the differences); any other graph is profiled here: its labels
        without a column match no target (the bound only shrinks), and
        its conjugate's columns past the matrices' width are summed as
        ``overflow``, added to every L1 term."""
        # Each matrix read once: a concurrent fill may swap in a grown one.
        sizes, label_counts, deg_above = self.sizes, self.label_counts, self.deg_above
        overflow = 0
        if isinstance(source, (int, np.integer)):
            signed = np.promote_types(sizes.dtype, np.int8)
            size = sizes[source].astype(signed)
            counts = label_counts[source].astype(signed)
            above = deg_above[source].astype(signed)
        else:
            counts = np.zeros(label_counts.shape[1], dtype=np.int64)
            for label in source.node_labels:
                column = self._labels.get(label, len(counts))
                if column < len(counts):
                    counts[column] += 1
            degrees = np.asarray(source.degrees(), dtype=np.int64)
            width = deg_above.shape[1]
            above = (degrees[:, None] > np.arange(width)).sum(axis=0)
            overflow = int(np.maximum(degrees - width, 0).sum())
            size = np.int64(source.num_nodes)
        common = np.minimum(label_counts[target_rows], counts).sum(axis=1)
        label = np.maximum(sizes[target_rows], size) - common
        l1 = np.abs(deg_above[target_rows] - above).sum(axis=1) + overflow
        return label + 0.5 * l1
