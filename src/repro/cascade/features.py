"""Vectorized per-graph profiles behind the assignment lower bound.

The bound needs, for every graph in the attached list, its node count,
label histogram and sorted degree sequence.  :class:`StageFeatures`
materializes those once per engine as dense integer matrices, so a whole
candidate block is bounded with a handful of numpy reductions instead of
a Python loop.  Every entry is at most the widest graph's node count, so
the matrices take the smallest unsigned dtype that holds it (one byte per
entry on every bundled dataset), and they are filled a block of graphs at
a time from each graph's node labels and CSR degrees.

A degree sequence is held as its *conjugate*: column ``t`` counts the
nodes of degree above ``t``.  Two degree sequences sorted descending and
zero-padded are as far apart in L1 as their conjugates — both sums count
the cells of one Young diagram outside the other, by rows and by columns
— and the conjugate is as wide as the largest degree (7 on dud), not as
the widest graph (29).

The cache grows monotonically: live mutations append graphs to the
engine's list, and :meth:`sync` extends the matrices (new label columns,
wider degree rows) without touching existing rows.  Row ``i`` always
describes ``graphs[i]`` at the time it was first seen — graphs are
immutable in this codebase, so rows never go stale.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


#: Graphs whose nodes are profiled in one block: bounds the fill's
#: temporaries to tens of kilobytes whatever the list's length.
_FILL_GRAPHS = 64


def _grown(old: np.ndarray, shape: tuple, dtype) -> np.ndarray:
    """``old`` copied into the top-left corner of a zero ``shape`` array."""
    out = np.zeros(shape, dtype=dtype)
    out[tuple(slice(0, extent) for extent in old.shape)] = old
    return out


class StageFeatures:
    """Dense (sizes, label counts, sorted degrees) over a graph list."""

    def __init__(self):
        self._vocab: dict[str, int] = {}
        self.count = 0
        self.sizes = np.zeros(0, dtype=np.uint8)
        self.label_counts = np.zeros((0, 0), dtype=np.uint8)
        #: ``[g, t]``: nodes of graph ``g`` with degree above ``t``.
        self.deg_above = np.zeros((0, 0), dtype=np.uint8)

    def sync(self, graphs) -> None:
        """Extend the matrices to cover ``graphs`` (idempotent)."""
        total = len(graphs)
        if total <= self.count:
            return
        fresh = graphs[self.count:total]
        vocab = self._vocab
        width = self.deg_above.shape[1]
        for graph in fresh:
            for label in graph.node_labels:
                vocab.setdefault(label, len(vocab))
            width = max(width, *graph.degrees(), 0)
        sizes = np.fromiter((g.num_nodes for g in fresh), np.int64, len(fresh))
        widest = int(sizes.max())
        dtype = np.promote_types(self.sizes.dtype, np.min_scalar_type(widest))
        self.sizes = _grown(self.sizes, (total,), dtype)
        self.label_counts = _grown(self.label_counts, (total, len(vocab)), dtype)
        self.deg_above = _grown(self.deg_above, (total, width), dtype)
        self.sizes[self.count:] = sizes
        for start in range(0, len(fresh), _FILL_GRAPHS):
            stop = start + _FILL_GRAPHS
            self._fill(fresh[start:stop], self.count + start, sizes[start:stop])
        self.count = total

    def _fill(self, graphs, offset: int, sizes: np.ndarray) -> None:
        """Write the label counts and degree conjugates of ``graphs`` into
        rows ``offset, offset + 1, …`` — one flat array per node
        attribute, one scatter per matrix."""
        nodes = int(sizes.sum())
        vocab = self._vocab
        codes = np.fromiter(
            (vocab[label] for g in graphs for label in g.node_labels),
            np.int64, nodes,
        )
        degrees = np.fromiter(
            chain.from_iterable(g.degrees() for g in graphs), np.int64, nodes
        )
        rows = np.repeat(np.arange(len(graphs)), sizes)
        np.add.at(self.label_counts, (offset + rows, codes), 1)
        width = self.deg_above.shape[1]
        # Nodes per (row, degree), summed from the top degree down.
        per_degree = np.zeros((len(graphs), width + 1), dtype=np.int64)
        np.add.at(per_degree, (rows, degrees), 1)
        self.deg_above[offset:offset + len(graphs)] = (
            per_degree[:, :0:-1].cumsum(axis=1)[:, ::-1]
        )

    # -- source-side projections --------------------------------------
    def source_row(self, source):
        """``(size, dense label counts, degree conjugate, overflow)`` of
        the source: row ``source`` itself for an integer — in the
        narrowest signed type that holds the matrices' differences, so a
        block's temporaries stay small — else the profile of an arbitrary
        query graph, in int64.

        Labels outside the cached vocabulary cannot match any target
        label, so dropping them only shrinks the common-label term —
        the bound stays a valid lower bound and is exact whenever the
        source's labels all appear in the vocabulary.  Degrees above the
        cached width meet no target column: the conjugate's columns past
        it are returned summed as ``overflow``, added to every L1 term.
        """
        if isinstance(source, (int, np.integer)):
            signed = np.promote_types(self.sizes.dtype, np.int8)
            return (
                self.sizes[source].astype(signed),
                self.label_counts[source].astype(signed),
                self.deg_above[source].astype(signed), 0,
            )
        counts = np.zeros(self.label_counts.shape[1], dtype=np.int64)
        for label in source.node_labels:
            column = self._vocab.get(label)
            if column is not None:
                counts[column] += 1
        degrees = np.asarray(source.degrees(), dtype=np.int64)
        width = self.deg_above.shape[1]
        above = (degrees[:, None] > np.arange(width)).sum(axis=0)
        overflow = int(np.maximum(degrees - width, 0).sum())
        return np.int64(source.num_nodes), counts, above, overflow

    # -- the vectorized lower bound -----------------------------------
    def assignment_lb(self, source, target_rows: np.ndarray) -> np.ndarray:
        """:func:`repro.ged.bounds.assignment_lower_bound` of the source
        (a row or a graph, as :meth:`source_row` takes it) against every
        target row: label-histogram matching cost ``max(|g|,|h|) −
        Σ_l min(c_g, c_h)`` plus half the L1 distance between sorted
        degree sequences (taken between their conjugates).  Integer sums,
        one float conversion: every value is a multiple of 0.5, exact."""
        size, counts, above, overflow = self.source_row(source)
        common = np.minimum(self.label_counts[target_rows], counts).sum(axis=1)
        label = np.maximum(self.sizes[target_rows], size) - common
        l1 = np.abs(self.deg_above[target_rows] - above).sum(axis=1) + overflow
        return label + 0.5 * l1
