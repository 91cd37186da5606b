"""The graph database: graphs paired with feature vectors.

The paper's data model (Section 2) tags every graph ``g_i`` with a feature
vector characterizing its properties — binding affinities, topic sets,
activity levels — on which the query-time relevance function operates.
:class:`GraphDatabase` stores the graphs and a dense ``(n, m)`` feature
matrix side by side and provides the relevance machinery on top.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.graphs.graph import LabeledGraph
from repro.utils.validation import require


def _adopt(graph: LabeledGraph, position: int) -> LabeledGraph:
    """``graph`` as this database's entry ``position``: numbered in place
    when the id slot is free or already right, else a structure-sharing
    copy — never a second id written onto another database's graph."""
    if graph.graph_id is None or graph.graph_id == position:
        graph.graph_id = position
        return graph
    return graph.renumbered(position)


class GraphList(list):
    """A database's graph list.  ``origin`` is the list it was cut from as
    a prefix (:meth:`GraphDatabase.subset` of ``range(k)``), holding the
    same graph objects at the same positions, or ``None``; ``columns`` is
    the distance engine's per-position star columns over the origin
    (:class:`repro.engine.starbatch.StarColumns`), set on first use, so
    every prefix of one list shares one copy."""

    __slots__ = ("origin", "columns")

    def __init__(self, graphs=(), origin: "GraphList | None" = None):
        super().__init__(graphs)
        self.origin = origin
        self.columns = None

    def __reduce__(self):
        # A copy is a list of its own: its columns are filled afresh.
        return GraphList, (list(self),)


class GraphDatabase:
    """An in-memory graph database ``D = {g_1 … g_n}`` with feature vectors.

    Parameters
    ----------
    graphs:
        The database graphs.  Ids are always dense ``0..n-1`` positions: a
        graph without an id (or already carrying its position) is numbered
        in place; one that carries another id belongs to some other
        database, which must not be renumbered behind its back, so this
        database holds a structure-sharing copy
        (:meth:`LabeledGraph.renumbered`) instead.
    features:
        Array-like of shape ``(n, m)`` — one ``m``-dimensional feature vector
        per graph.  A 1-D array of length ``n`` is accepted and reshaped to
        ``(n, 1)``.
    """

    def __init__(self, graphs: Iterable[LabeledGraph], features):
        graphs = list(graphs)
        matrix = np.asarray(features, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(-1, 1)
        require(
            matrix.ndim == 2,
            f"features must be 1-D or 2-D, got shape {matrix.shape}",
        )
        require(
            matrix.shape[0] == len(graphs),
            f"{len(graphs)} graphs but {matrix.shape[0]} feature rows",
        )
        self._features = matrix
        self._features.setflags(write=False)
        self._graphs = GraphList(_adopt(g, i) for i, g in enumerate(graphs))
        self._deleted: set[int] = set()

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._graphs)

    def __getitem__(self, index: int) -> LabeledGraph:
        return self._graphs[index]

    def __iter__(self) -> Iterator[LabeledGraph]:
        return iter(self._graphs)

    @property
    def graphs(self) -> Sequence[LabeledGraph]:
        return self._graphs

    @property
    def features(self) -> np.ndarray:
        """Read-only ``(n, m)`` feature matrix."""
        return self._features

    @property
    def num_features(self) -> int:
        return self._features.shape[1]

    def feature_vector(self, index: int) -> np.ndarray:
        """Feature vector of graph ``index``."""
        return self._features[index]

    # ------------------------------------------------------------------
    # Relevance
    # ------------------------------------------------------------------
    def relevant_indices(self, query_fn) -> np.ndarray:
        """Indices of relevant graphs ``L_q`` under a query function.

        ``query_fn`` is anything from :mod:`repro.graphs.relevance` (or any
        callable taking a single feature row and returning truthy/falsy).
        Vectorized query functions (exposing ``mask``) are applied in one
        shot; plain callables row by row.
        """
        mask_fn = getattr(query_fn, "mask", None)
        if mask_fn is not None:
            mask = np.asarray(mask_fn(self._features), dtype=bool)
            require(
                mask.shape == (len(self),),
                f"query mask has shape {mask.shape}, expected ({len(self)},)",
            )
        else:
            mask = np.fromiter(
                (bool(query_fn(row)) for row in self._features),
                dtype=bool,
                count=len(self),
            )
        if self._deleted:
            mask = mask.copy()
            mask[sorted(self._deleted)] = False
        return np.flatnonzero(mask)

    # ------------------------------------------------------------------
    # Soft deletion
    # ------------------------------------------------------------------
    def mark_deleted(self, gid: int) -> None:
        """Soft-delete a graph: it stays addressable (ids remain dense and
        index structures remain valid) but is never relevant again, so no
        engine will return or count it.
        """
        require(0 <= gid < len(self), f"gid {gid} outside 0..{len(self) - 1}")
        self._deleted.add(int(gid))

    def restore(self, gid: int) -> None:
        """Undo a soft deletion."""
        self._deleted.discard(int(gid))

    def is_deleted(self, gid: int) -> bool:
        return int(gid) in self._deleted

    @property
    def deleted(self) -> frozenset[int]:
        return frozenset(self._deleted)

    def subset(self, indices: Sequence[int]) -> "GraphDatabase":
        """A new database restricted to ``indices`` (ids are renumbered).

        Soft-deletion marks are *not* carried over: the subset is a fresh
        database over the selected graphs — a graph that keeps its
        position is the same object, any other an O(1) copy sharing its
        original's structure under its own id, so subsetting costs a few
        pointers per graph (shards, snapshots under a latch).  A prefix
        (``range(k)``) shares this list's star columns
        (:class:`GraphList`).
        """
        indices = list(indices)
        subset = GraphDatabase(
            [self._graphs[i] for i in indices], self._features[indices]
        )
        if indices == list(range(len(indices))):
            origin = self._graphs.origin
            subset._graphs.origin = self._graphs if origin is None else origin
        return subset

    def sample(self, size: int, rng: np.random.Generator) -> "GraphDatabase":
        """A uniform random sample of ``size`` graphs (without replacement)."""
        require(0 < size <= len(self), f"sample size {size} not in 1..{len(self)}")
        indices = rng.choice(len(self), size=size, replace=False)
        return self.subset(sorted(int(i) for i in indices))

    def feature_row(self, values) -> np.ndarray:
        """``values`` as one row of the feature matrix, checked against
        its width — the check :meth:`append` makes, for callers that must
        make it before they append (a journal writes ahead)."""
        row = np.asarray(values, dtype=float).reshape(1, -1)
        require(
            row.shape[1] == self.num_features,
            f"feature row has {row.shape[1]} dims, database has "
            f"{self.num_features}",
        )
        return row

    def append(self, graph: LabeledGraph, feature_row) -> int:
        """Add a graph to the database; returns its new id.

        The feature matrix is rebuilt (O(n) copy) — appends are expected to
        be occasional, e.g. feeding :meth:`repro.index.NBIndex.insert`.
        """
        row = self.feature_row(feature_row)
        graphs, new_id = self._graphs, len(self._graphs)
        graph = _adopt(graph, new_id)
        origin = graphs.origin
        if origin is not None and (
            new_id >= len(origin) or origin[new_id] is not graph
        ):
            graphs.origin = None  # no longer a prefix of its origin
        graphs.append(graph)
        matrix = np.vstack([self._features, row])
        matrix.setflags(write=False)
        self._features = matrix
        return new_id

    # ------------------------------------------------------------------
    # Summary statistics (Table 3 of the paper)
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Dataset statistics in the shape of the paper's Table 3."""
        nodes = [g.num_nodes for g in self._graphs]
        edges = [g.num_edges for g in self._graphs]
        return {
            "num_graphs": len(self._graphs),
            "avg_nodes": float(np.mean(nodes)) if nodes else 0.0,
            "avg_edges": float(np.mean(edges)) if edges else 0.0,
            "num_features": self.num_features,
        }

    def __repr__(self) -> str:
        return (
            f"<GraphDatabase n={len(self)} "
            f"features={self._features.shape[1]}d>"
        )
