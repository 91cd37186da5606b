"""Top-k representative queries over arbitrary metric spaces.

The paper notes its algorithm "is generalizable to all metric spaces"
(Sec. 1); every engine in this library only ever touches the database
through ``database[i]`` and a distance callable, so non-graph objects just
need an adapter.  :func:`metric_space_database` wraps arbitrary payload
objects into placeholder graphs (one vertex, labelled by position) and
pairs them with a distance that dereferences the payloads — the same
pattern the Theorem-1 reduction uses (:mod:`repro.core.reduction`).

The payloads can be anything — time series, strings under edit distance,
embeddings — as long as ``distance(payload_a, payload_b)`` is a metric.

A metric with a batch form — ``metric.one_to_many(payload, block)`` over
an ``(m, d)`` block of rows, equal to ``[metric(payload, row) for row in
block]`` bit for bit, as :class:`~repro.metricspace.MinkowskiMetric` has —
keeps its payloads as the rows of one float matrix
(:class:`PayloadMatrix`), and an engine over the distance evaluates a
whole batch as one block (:meth:`PayloadDistance.batch_evaluator`).  The
one-pair ``__call__`` stays the reference.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from repro.graphs.database import GraphDatabase
from repro.graphs.graph import LabeledGraph
from repro.utils.validation import require


class PayloadMatrix:
    """Payloads as the rows of one float matrix that grows by appends.

    The matrix given is used as it is — no copy — until the first append
    outgrows it; growth doubles the capacity into a fresh matrix.  A
    reader takes :attr:`rows` once, after it knows which rows it needs:
    an append writes a row no reader knows of yet and only then publishes
    it, and rows once published are never written again, so reading while
    another thread appends is safe.
    """

    def __init__(self, payloads):
        matrix = np.asarray(payloads, dtype=float)
        require(
            matrix.ndim == 2,
            f"payloads of a batch metric must form an (n, d) matrix, got "
            f"shape {matrix.shape}",
        )
        #: The payload rows; past ``len(self)`` only spare capacity.
        self.rows = matrix
        self._count = len(matrix)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index) -> np.ndarray:
        return self.rows[range(self._count)[index]]

    def append(self, payload) -> None:
        row = np.asarray(payload, dtype=float)
        with self._lock:
            count, rows = self._count, self.rows
            require(
                row.shape == rows.shape[1:],
                f"payload has shape {row.shape}, the rows {rows.shape[1:]}",
            )
            if count == len(rows):
                grown = np.empty((2 * count, *rows.shape[1:]))
                grown[:count] = rows
                rows = grown
            rows[count] = row
            self.rows = rows
            self._count = count + 1


class PayloadDistance:
    """A graph-distance adapter around a payload-level metric."""

    def __init__(self, payloads: Sequence, metric: Callable):
        self._metric = metric
        self._payloads = (
            PayloadMatrix(payloads) if hasattr(metric, "one_to_many")
            else list(payloads)
        )
        #: Placeholder label -> payload row, learned once per label (a
        #: graph's copies in sub-databases share its label string).
        self._label_rows: dict[str, int] = {}

    def payload(self, gid: int):
        return self._payloads[gid]

    @staticmethod
    def _label_index(label) -> int | None:
        # Placeholder graphs carry their payload index in the node label
        # ("o<i>", see metric_space_database), which survives database
        # subsetting; graph_id does not — a sub-database renumbers ids
        # 0..n_s-1, and resolving through it would alias payloads.
        if isinstance(label, str) and label.startswith("o"):
            try:
                return int(label[1:])
            except ValueError:
                pass
        return None

    def _index_of(self, g: LabeledGraph) -> int:
        index = self._label_index(g.node_labels[0])
        return g.graph_id if index is None else index

    def __call__(self, g1: LabeledGraph, g2: LabeledGraph) -> float:
        return float(
            self._metric(
                self._payloads[self._index_of(g1)],
                self._payloads[self._index_of(g2)],
            )
        )

    def __len__(self) -> int:
        return len(self._payloads)

    def append(self, payload) -> int:
        """Register one more payload (for incremental inserts)."""
        self._payloads.append(payload)
        return len(self._payloads) - 1

    # ------------------------------------------------------------------
    # Batch path (a metric with a batch form only)
    # ------------------------------------------------------------------
    def batch_evaluator(self) -> "PayloadDistance | None":
        """This distance as an engine's batch evaluator (its
        :meth:`one_to_many`), or ``None`` when the metric has no batch
        form — the engine then calls it pair by pair."""
        return self if isinstance(self._payloads, PayloadMatrix) else None

    def one_to_many(
        self, g: LabeledGraph, others: Sequence[LabeledGraph]
    ) -> np.ndarray:
        """``[self(g, h) for h in others]`` as one block: the source's
        payload row against the targets' rows of the payload matrix, bit
        for bit the one-pair values.  One target is the one-pair call
        itself, which costs less than the block's fixed numpy price."""
        if len(others) == 1:
            return np.array([self(g, others[0])])
        get = self._label_rows.get
        rows = np.array(
            [
                row if (row := get(h.node_labels[0])) is not None
                else self._row_of(h)
                for h in (g, *others)
            ],
            dtype=np.intp,
        )
        matrix = self._payloads.rows  # after the lookups: see PayloadMatrix
        return self._metric.one_to_many(
            matrix[rows[0]], matrix.take(rows[1:], axis=0)
        )

    def _row_of(self, g: LabeledGraph) -> int:
        """``g``'s payload row, resolved as the one-pair call resolves it;
        a placeholder label's row is remembered once it exists."""
        label = g.node_labels[0]
        index = self._label_index(label)
        count = len(self._payloads)
        if index is not None and 0 <= index < count:
            self._label_rows[label] = index
            return index
        # Raises (or wraps a negative index) where the one-pair call would.
        return range(count)[g.graph_id if index is None else index]


def metric_space_database(
    payloads: Sequence,
    metric: Callable,
    features=None,
) -> tuple[GraphDatabase, PayloadDistance]:
    """Build a (database, distance) pair over arbitrary objects.

    Parameters
    ----------
    payloads:
        The objects to query over (an ``(n, d)`` float matrix, kept as it
        is, when ``metric`` has a batch form).
    metric:
        ``(payload, payload) → float`` — must satisfy the metric axioms for
        the NB-Index theorems to hold (validate with
        :func:`repro.ged.check_metric_axioms` on a sample if unsure).
    features:
        Optional ``(n, m)`` feature matrix for relevance functions; defaults
        to a constant column (everything relevant under a ≤0 threshold).
    """
    distance = PayloadDistance(payloads, metric)
    require(len(distance) > 0, "payloads must be non-empty")
    if features is None:
        features = np.ones((len(distance), 1))
    graphs = [LabeledGraph([f"o{i}"]) for i in range(len(distance))]
    database = GraphDatabase(graphs, features)
    return database, distance
