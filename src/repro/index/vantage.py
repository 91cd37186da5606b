"""Vantage points and vantage orderings (Sec. 6.2 of the paper).

A vantage point ``v`` Lipschitz-embeds the metric space into one dimension:
graph ``g`` becomes the scalar ``d(v, g)``.  With a set of vantage points
``V`` the embedding is ``|V|``-dimensional, and the *vantage distance*

``d_V(g, g') = max_{v ∈ V} | d(v, g) − d(v, g') |``

is a lower bound on the true distance (Theorem 4: triangle inequality).
Hence the Chebyshev ball of radius θ around ``g`` in the embedded space —
computed with pure array arithmetic, no edit distances — is a superset
``N̂_θ(g) ⊇ N_θ(g)`` of the true θ-neighborhood (Theorem 5).  Expensive
edit distances are then needed only to verify the candidates.

:class:`VantageEmbedding` holds the precomputed ``(n, |V|)`` coordinate
matrix — the rows the paper's Vantage Orderings sort; a Chebyshev pass
over them is the whole candidate generation.  It is the one vantage frame of
every deployment: a single index's, a sharded bundle's (whose shard files
store its rows) and a mutable index's (which keeps its memtable rows).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.cascade import BLOCK_EVALS
from repro.engine import DistanceEngine
from repro.ged.metric import GraphDistanceFn
from repro.graphs.graph import LabeledGraph
from repro.utils.rng import ensure_rng
from repro.utils.validation import require


def select_vantage_points(
    graphs: Sequence[LabeledGraph],
    count: int,
    rng=None,
    strategy: str = "random",
    distance: GraphDistanceFn | None = None,
) -> list[int]:
    """Choose ``count`` vantage-point indices from ``graphs``.

    ``strategy='random'`` is the paper's choice (Def. 3 selects VPs
    randomly; the FPR analysis of Sec. 6.2.1 assumes it).
    ``strategy='maxmin'`` is the classic farthest-first alternative offered
    for the ablation benchmarks; it needs ``distance`` (a metric or a
    :class:`~repro.engine.DistanceEngine`) and pays one O(n) batch scan
    per round.
    """
    require(0 < count <= len(graphs), f"count {count} not in 1..{len(graphs)}")
    rng = ensure_rng(rng)
    if strategy == "random":
        chosen = rng.choice(len(graphs), size=count, replace=False)
        return sorted(int(i) for i in chosen)
    if strategy == "maxmin":
        require(distance is not None, "maxmin strategy requires a distance")
        engine = DistanceEngine.of(distance, graphs)

        def scan(pivot: int) -> np.ndarray:
            return np.asarray(
                engine.one_to_many(graphs[pivot], list(graphs)), dtype=float
            )

        first = int(rng.integers(len(graphs)))
        chosen_list = [first]
        min_dist = scan(first)
        while len(chosen_list) < count:
            nxt = int(np.argmax(min_dist))
            chosen_list.append(nxt)
            np.minimum(min_dist, scan(nxt), out=min_dist)
        return sorted(chosen_list)
    raise ValueError(f"unknown strategy {strategy!r}; use 'random' or 'maxmin'")


class VantageEmbedding:
    """The vantage frame: every indexed graph's coordinates against one
    fixed vantage set, row ``g`` for graph id ``g``.

    Theorem 4 holds for any *fixed* vantage set — nothing requires the
    vantage graphs to be members of the index whose bounds they give — so
    a bundle's shards all store rows of this one frame, and a graph's
    coordinates are the same row wherever it is looked at from.  The
    embedding holds no graph list and no engine: whoever measures a new
    row hands in the engine whose ids it speaks.

    Graphs past the stored rows (a mutable index's memtable) get their row
    on first use (:meth:`row`) — ``|V|`` exact distances, once per
    process — and keep it in ``extra`` until a compaction stores it; a
    query cancelled by its deadline while measuring it keeps nothing.
    Ids are append-only and deletes are soft, so a tombstoned vantage
    graph stays a valid origin.

    Parameters
    ----------
    graphs:
        The database graphs, in id order.
    vantage_indices:
        Ids of the chosen vantage points within ``graphs``.
    distance:
        The underlying metric, or a :class:`~repro.engine.DistanceEngine`
        over it; ``|V| · n`` distances at construction
        (:meth:`~repro.engine.DistanceEngine.columns`, which deals one
        contiguous block of graphs to each usable CPU).
    """

    def __init__(
        self,
        graphs: Sequence[LabeledGraph],
        vantage_indices: Sequence[int],
        distance: GraphDistanceFn,
    ):
        require(len(vantage_indices) > 0, "at least one vantage point required")
        self.vantage_indices = [int(i) for i in vantage_indices]
        self.extra: dict[int, np.ndarray] = {}
        self.coords = DistanceEngine.of(distance, graphs).columns(
            [graphs[vp] for vp in self.vantage_indices], graphs
        )

    @classmethod
    def from_coords(
        cls,
        vantage_indices: Sequence[int],
        coords: np.ndarray,
        extra: dict[int, np.ndarray] | None = None,
    ) -> "VantageEmbedding":
        """An embedding over stored rows (index load, a bundle's frame,
        a compaction's grown frame) — no distances are evaluated, and a
        float64 ``coords`` is held, not copied."""
        require(len(vantage_indices) > 0, "at least one vantage point required")
        coords = np.asarray(coords, dtype=float)
        require(
            coords.ndim == 2 and coords.shape[1] == len(vantage_indices),
            f"coords shape {coords.shape} does not match "
            f"{len(vantage_indices)} vantage points",
        )
        embedding = cls.__new__(cls)
        embedding.vantage_indices = [int(i) for i in vantage_indices]
        embedding.extra = {} if extra is None else extra
        embedding.coords = coords
        return embedding

    @property
    def num_vantage_points(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __contains__(self, gid: int) -> bool:
        return gid < self.coords.shape[0] or gid in self.extra

    # ------------------------------------------------------------------
    # Rows past the stored ones (memtable graphs, inserts)
    # ------------------------------------------------------------------
    def row(self, gid: int, engine) -> np.ndarray:
        """Coordinates of graph ``gid``; a graph past the stored rows is
        measured through ``engine`` (whose ids include ``gid`` and the
        vantage graphs) on first use and kept in :attr:`extra`."""
        if gid < self.coords.shape[0]:
            return self.coords[gid]
        row = self.extra.get(gid)
        if row is None:
            row = self.extra[gid] = np.asarray(
                engine.one_to_many(gid, self.vantage_indices), dtype=float
            )
        return row

    def append(self, gid: int, engine) -> None:
        """Store graph ``gid``'s row as the next one (``gid`` must be
        ``len(self)``): the in-place insert."""
        require(gid == len(self), f"graph {gid} is not the next row {len(self)}")
        row = self.row(gid, engine)
        self.extra.pop(gid, None)
        self.coords = np.vstack([self.coords, row])

    # ------------------------------------------------------------------
    # Bounds (Theorem 4 and its dual)
    # ------------------------------------------------------------------
    def lower_bound(self, i: int, j: int) -> float:
        """Vantage distance ``d_V`` — a lower bound on ``d(g_i, g_j)``."""
        return float(np.max(np.abs(self.coords[i] - self.coords[j])))

    def upper_bound(self, i: int, j: int) -> float:
        """``min_v d(v, g_i) + d(v, g_j)`` — an upper bound on ``d(g_i, g_j)``."""
        return float(np.min(self.coords[i] + self.coords[j]))

    def lower_bounds_to(self, coords_g: np.ndarray, among: np.ndarray) -> np.ndarray:
        """Vantage distances from a coordinate vector to many graphs at once."""
        return np.max(np.abs(self.coords[among] - coords_g), axis=1)

    def upper_bounds_to(self, coords_g: np.ndarray, among: np.ndarray) -> np.ndarray:
        """Vantage upper bounds from a coordinate vector to many graphs."""
        return np.min(self.coords[among] + coords_g, axis=1)

    # ------------------------------------------------------------------
    # Candidate generation (Theorem 5)
    # ------------------------------------------------------------------
    def candidates(
        self,
        i: int,
        theta: float,
        among: np.ndarray | None = None,
    ) -> np.ndarray:
        """``N̂_θ(g_i)``: ids whose vantage distance to ``g_i`` is ≤ θ.

        Guaranteed superset of the true θ-neighborhood restricted to
        ``among`` (every row when omitted): one :meth:`lower_bounds_to`
        pass.
        """
        among = np.arange(len(self)) if among is None else np.asarray(among)
        if among.size == 0:
            return among
        obs.counter(BLOCK_EVALS)
        return among[self.lower_bounds_to(self.coords[i], among) <= theta]

    def candidate_counts(
        self,
        rows: np.ndarray,
        thetas: Sequence[float],
        among: np.ndarray,
        block_rows: int | None = None,
    ) -> np.ndarray:
        """Candidate-set sizes for many graphs at many thresholds at once.

        Returns an ``(len(rows), len(thetas))`` integer array where entry
        ``[r, t]`` is ``|N̂_{θ_t}(g_rows[r]) ∩ among|`` — the raw material of
        the π̂-vectors (Def. 6).  Whole blocks of rows are evaluated at once
        — no per-row Python loop — as a running maximum over the vantage
        columns, so the temporaries are ``(block, |among|)``: ``block_rows``
        caps them (auto-sized to ~8 MB when omitted).  A count of values
        ≤ θ equals the old per-row ``sort`` + ``searchsorted(side='right')``,
        so π̂ is unchanged.
        """
        rows = np.asarray(rows)
        among = np.asarray(among)
        thetas_arr = np.asarray(list(thetas), dtype=float)
        counts = np.empty((rows.size, thetas_arr.size), dtype=np.int64)
        coords_among = self.coords[among]
        if block_rows is None:
            block_rows = max(
                1, min(int(rows.size), (1 << 20) // max(1, among.size))
            )
        for start in range(0, int(rows.size), block_rows):
            block = self.coords[rows[start:start + block_rows]]
            obs.counter(BLOCK_EVALS)
            cheb = np.zeros((len(block), among.size))
            for column in range(coords_among.shape[1]):
                gap = np.abs(block[:, [column]] - coords_among[:, column])
                np.maximum(cheb, gap, out=cheb)
            for t in range(thetas_arr.size):
                counts[start:start + block_rows, t] = (
                    cheb <= thetas_arr[t]
                ).sum(axis=1)
        return counts

    def __repr__(self) -> str:
        return (
            f"<VantageEmbedding n={len(self)} "
            f"|V|={self.num_vantage_points} extra={len(self.extra)}>"
        )

