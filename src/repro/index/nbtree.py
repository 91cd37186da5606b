"""The NB-Tree: hierarchical disjoint clustering of the database (Sec. 6.4).

The tree is built top-down: at each node up to ``b`` pivots are chosen
farthest-first (the first at random, each next maximizing its minimum
distance to the chosen ones), every member is assigned to its closest
pivot, and the procedure recurses until clusters fall to ``b`` graphs or
fewer.  Leaves are individual graphs; each internal node stores its
centroid (the pivot), radius (max centroid–member distance) and diameter
(sum of the two largest centroid distances, the paper's rule).

Edit distances dominate construction cost, so pivot assignment is
accelerated with the vantage embedding exactly as Sec. 6.4 prescribes:
a pivot is skipped for a member when the vantage *lower* bound already
exceeds the member's current closest-pivot distance.  The build records
how many exact distances this avoided — the paper reports "< 1% of the
candidate pairs" end up needing exact evaluation on DUD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine import DistanceEngine
from repro.ged.metric import SLACK, GraphDistanceFn
from repro.index.vantage import VantageEmbedding
from repro.utils.rng import ensure_rng
from repro.utils.validation import require


@dataclass
class NBTreeNode:
    """One node of the NB-Tree.

    A leaf represents a single database graph (``graph_index`` set,
    ``children`` empty).  An internal node represents a cluster: the
    ``members`` array lists every database graph in its subtree.
    """

    node_id: int
    centroid: int
    radius: float
    diameter: float
    members: np.ndarray
    children: list["NBTreeNode"] = field(default_factory=list)
    graph_index: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.graph_index is not None

    def __repr__(self) -> str:
        kind = f"leaf g{self.graph_index}" if self.is_leaf else (
            f"cluster |c|={len(self.members)} r={self.radius:.2f} "
            f"diam={self.diameter:.2f}"
        )
        return f"<NBTreeNode #{self.node_id} {kind}>"


@dataclass
class BuildStats:
    """Construction-cost accounting."""

    exact_distances: int = 0
    pruned_by_vantage: int = 0

    @property
    def candidate_pairs(self) -> int:
        return self.exact_distances + self.pruned_by_vantage

    @property
    def exact_fraction(self) -> float:
        total = self.candidate_pairs
        return self.exact_distances / total if total else 0.0


class NBTree:
    """The clustering component of the NB-Index.

    Parameters
    ----------
    graphs:
        Database graphs in id order.
    distance:
        The metric, or a :class:`~repro.engine.DistanceEngine` over it;
        the per-pivot member scans run as engine batches.
    embedding:
        Vantage embedding of the same graphs (used only to prune pivot
        assignment; pass ``None`` to build without acceleration).
    branching:
        Maximum fan-out ``b``; also the cluster size below which recursion
        stops (paper default 40; small values suit memory-resident use).
    """

    def __init__(
        self,
        graphs,
        distance: GraphDistanceFn,
        embedding: VantageEmbedding | None,
        branching: int = 8,
        rng=None,
    ):
        require(branching >= 2, f"branching must be >= 2, got {branching}")
        require(len(graphs) > 0, "cannot build a tree over an empty database")
        self._graphs = graphs
        self._engine = DistanceEngine.of(distance, graphs)
        self._embedding = embedding
        self.branching = branching
        self.stats = BuildStats()
        self.nodes: list[NBTreeNode] = []
        rng = ensure_rng(rng)
        all_members = np.arange(len(graphs))
        self.root = self._build(all_members, rng)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_node(self, **kwargs) -> NBTreeNode:
        node = NBTreeNode(node_id=len(self.nodes), **kwargs)
        self.nodes.append(node)
        return node

    def _exact_batch(self, source: int, targets: np.ndarray) -> np.ndarray:
        """``d(source, t)`` for an id array of targets, one engine batch.

        Counts one exact distance per target — cache-served evaluations
        included.
        """
        self.stats.exact_distances += len(targets)
        graphs = self._graphs
        if self._engine.graphs is graphs:
            return np.asarray(self._engine.one_to_many(source, targets), dtype=float)
        return np.asarray(
            self._engine.one_to_many(
                graphs[source], [graphs[t] for t in targets.tolist()]
            ),
            dtype=float,
        )

    def _distances_from(self, source: int, members: np.ndarray) -> np.ndarray:
        """Exact distance from member ``source`` to every member, in member
        order; its own entry is 0.0 and never evaluated."""
        distances = np.zeros(members.size)
        others = members != source
        distances[others] = self._exact_batch(source, members[others])
        return distances

    def _leaf(self, index: int) -> NBTreeNode:
        return self._new_node(
            centroid=index,
            radius=0.0,
            diameter=0.0,
            members=np.array([index]),
            graph_index=index,
        )

    def _bucket(self, members: np.ndarray, centroid: int) -> NBTreeNode:
        """Terminal cluster: children are the member leaves."""
        distances = self._distances_from(centroid, members)
        node = self._new_node(
            centroid=centroid,
            radius=float(distances.max()),
            diameter=_diameter_from_centroid_distances(distances),
            members=np.sort(members),
        )
        node.children = [self._leaf(m) for m in members.tolist()]
        return node

    def _build(self, members: np.ndarray, rng) -> NBTreeNode:
        if members.size == 1:
            return self._leaf(int(members[0]))
        if members.size <= self.branching:
            centroid = int(members[rng.integers(members.size)])
            return self._bucket(members, centroid)

        pivots, assignment, first_pivot_distances = self._choose_pivots(members, rng)

        children: list[NBTreeNode] = []
        for pivot in pivots:
            cluster_members = members[assignment == pivot]
            if cluster_members.size == 0:
                continue
            if cluster_members.size == members.size:
                # Degenerate split (e.g. all members identical): stop the
                # recursion with a flat bucket to guarantee termination.
                children.append(self._bucket(cluster_members, pivot))
            elif cluster_members.size == 1:
                children.append(self._leaf(int(cluster_members[0])))
            else:
                children.append(self._build(cluster_members, rng))

        if len(children) == 1:
            return children[0]

        # The first pivot acts as this cluster's centroid; its distances to
        # all members were computed during pivot selection.
        return self._new_node(
            centroid=pivots[0],
            radius=float(first_pivot_distances.max()),
            diameter=_diameter_from_centroid_distances(first_pivot_distances),
            members=np.sort(members),
            children=children,
        )

    def _choose_pivots(self, members: np.ndarray, rng):
        """Farthest-first pivot selection with vantage-bound pruning.

        Returns ``(pivots, assignment, first_pivot_distances)`` where
        ``assignment[i]`` is the pivot closest to ``members[i]`` and
        ``first_pivot_distances[i]`` the exact distance of ``members[i]``
        from the first pivot (this cluster's centroid).  Skipped
        evaluations (vantage lower bound already ≥ the current closest
        distance) cannot change the assignment.
        """
        first = int(members[rng.integers(members.size)])
        pivots = [first]
        first_pivot_distances = self._distances_from(first, members)
        min_dist = first_pivot_distances.copy()
        assignment = np.full(members.size, first)
        is_pivot = members == first
        while len(pivots) < self.branching:
            candidate_order = np.argsort(min_dist)[::-1]
            candidates = candidate_order[~is_pivot[candidate_order]]
            if not candidates.size or min_dist.max() == 0.0:
                break
            own = candidates[0]
            new_pivot = int(members[own])
            pivots.append(new_pivot)
            is_pivot[own] = True
            min_dist[own] = 0.0
            assignment[own] = new_pivot
            if self._embedding is not None:
                lower = self._embedding.lower_bounds_to(
                    self._embedding.coords[new_pivot], members
                )
            else:
                lower = np.zeros(members.size)
            # Which members need a real distance to the new pivot?  The
            # per-member updates are independent, so evaluating them as one
            # batch leaves every assignment and counter unchanged.  (The
            # pivot's own entry is 0.0 now, which no lower bound is below.)
            to_evaluate = np.flatnonzero(lower < min_dist)
            self.stats.pruned_by_vantage += members.size - 1 - to_evaluate.size
            exact = self._exact_batch(new_pivot, members[to_evaluate])
            closer = exact < min_dist[to_evaluate]
            min_dist[to_evaluate[closer]] = exact[closer]
            assignment[to_evaluate[closer]] = new_pivot
        return pivots, assignment, first_pivot_distances

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def height(self) -> int:
        def depth(node: NBTreeNode) -> int:
            if not node.children:
                return 1
            return 1 + max(depth(c) for c in node.children)

        return depth(self.root)

    def leaves(self) -> list[NBTreeNode]:
        return [node for node in self.nodes if node.is_leaf]

    def validate(self) -> list[str]:
        """Structural invariants; returns human-readable violations.

        Checks member partitioning, radius/diameter correctness with respect
        to the true metric, and leaf coverage.  O(n·height) distance calls —
        test-only.
        """
        problems: list[str] = []
        for node in self.nodes:
            if node.is_leaf:
                continue
            child_members = np.sort(
                np.concatenate([c.members for c in node.children])
            )
            if not np.array_equal(child_members, node.members):
                problems.append(f"node {node.node_id}: children do not partition members")
            centroid_graph = self._graphs[node.centroid]
            for m in node.members:
                d = self._engine(centroid_graph, self._graphs[int(m)])
                if d > node.radius + SLACK:
                    problems.append(
                        f"node {node.node_id}: member {m} at {d:.3f} beyond "
                        f"radius {node.radius:.3f}"
                    )
        leaf_ids = sorted(
            node.graph_index for node in self.nodes if node.is_leaf
        )
        if leaf_ids != list(range(len(self._graphs))):
            problems.append("leaves do not cover the database exactly once")
        return problems


def _diameter_from_centroid_distances(distances) -> float:
    """Paper's diameter estimate: sum of the two largest centroid distances.

    By the triangle inequality this upper-bounds the true pairwise
    diameter, which is what Theorems 7–8 need.
    """
    if len(distances) < 2:
        return 0.0
    top_two = np.sort(distances)[-2:]
    return float(top_two[0] + top_two[1])
