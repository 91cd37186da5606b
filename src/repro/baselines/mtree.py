"""M-tree style metric index (Zezula et al. [29]) — DisC's index structure.

A ball tree over the metric space: every node holds a routing object and a
covering radius bounding the distance from the routing object to anything
in its subtree.  Range queries ``{g : d(q, g) ≤ θ}`` descend the tree and
prune a subtree whenever ``d(q, routing) − radius > θ`` (triangle
inequality), evaluating real distances only at surviving leaves.

This implementation bulk-loads the tree top-down with farthest-first
routing-object selection rather than performing the original incremental
split-on-overflow inserts; the query-time pruning logic — the part the
paper's comparisons exercise — is the standard M-tree rule, including the
parent-distance filter that skips child distance evaluations when
``|d(q, parent) − d(parent, child_routing)| − child_radius > θ``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine import DistanceEngine
from repro.ged.metric import SLACK, GraphDistanceFn
from repro.utils.rng import ensure_rng
from repro.utils.validation import require


@dataclass
class MTreeNode:
    """Ball-tree node: routing object, covering radius, children/bucket."""

    routing: int
    radius: float
    #: distance from this node's routing object to its parent's (root: 0)
    parent_distance: float
    children: list["MTreeNode"] = field(default_factory=list)
    bucket: list[int] = field(default_factory=list)
    #: distances from the routing object to each bucket entry
    bucket_distances: list[float] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class MTree:
    """Bulk-loaded metric tree with M-tree range-query pruning.

    Parameters
    ----------
    graphs:
        Objects to index, addressed by position.
    distance:
        The metric, or a :class:`~repro.engine.DistanceEngine` over it; the
        bulk-load's per-pivot member scans run as engine batches.
        ``distance_calls`` counts every pair asked for, cached or not.
    capacity:
        Leaf bucket size and internal fan-out.
    """

    def __init__(
        self,
        graphs,
        distance: GraphDistanceFn,
        *,
        capacity: int = 16,
        seed=None,
    ):
        require(capacity >= 2, f"capacity must be >= 2, got {capacity}")
        require(len(graphs) > 0, "cannot index an empty collection")
        self._graphs = graphs
        self._engine = DistanceEngine.of(distance, graphs)
        self.capacity = capacity
        self.distance_calls = 0
        rng = ensure_rng(seed)
        self.root = self._build(list(range(len(graphs))), rng, parent=None)

    def stats(self) -> dict:
        """Statable protocol: build-work accounting."""
        return {"distance_calls": self.distance_calls, "capacity": self.capacity}

    def _d(self, i: int, j: int) -> float:
        self.distance_calls += 1
        return float(self._engine(self._graphs[i], self._graphs[j]))

    def _scan(self, source: int, members: list[int]) -> np.ndarray:
        """``d(source, m)`` per member, 0.0 at ``source`` itself — one
        engine batch, one ``distance_calls`` per pair."""
        others = [m for m in members if m != source]
        self.distance_calls += len(others)
        values = iter(
            self._engine.one_to_many(
                self._graphs[source], [self._graphs[m] for m in others]
            )
        )
        return np.array(
            [0.0 if m == source else float(next(values)) for m in members]
        )

    def _build(self, members: list[int], rng, parent: int | None) -> MTreeNode:
        routing = members[int(rng.integers(len(members)))]
        parent_distance = self._d(routing, parent) if parent is not None else 0.0
        if len(members) <= self.capacity:
            bucket_distances = [float(d) for d in self._scan(routing, members)]
            return MTreeNode(
                routing=routing,
                radius=max(bucket_distances),
                parent_distance=parent_distance,
                bucket=list(members),
                bucket_distances=bucket_distances,
            )
        # Farthest-first routing objects for the children.
        pivots = [routing]
        min_dist = self._scan(routing, members)
        while len(pivots) < self.capacity and min_dist.max() > 0.0:
            farthest = members[int(np.argmax(min_dist))]
            if farthest in pivots:
                break
            pivots.append(farthest)
            np.minimum(min_dist, self._scan(farthest, members), out=min_dist)

        # min() over pivots == argmin over the pivot-order distance rows
        # (both resolve ties to the first minimal pivot).
        pivot_rows = np.stack([self._scan(p, members) for p in pivots])
        assignment: dict[int, list[int]] = {p: [] for p in pivots}
        for column, m in enumerate(members):
            assignment[pivots[int(np.argmin(pivot_rows[:, column]))]].append(m)

        children = []
        for pivot in pivots:
            group = assignment[pivot]
            if not group:
                continue
            if len(group) == len(members):
                # Degenerate split (identical objects): stop recursing.
                bucket_distances = [float(d) for d in self._scan(pivot, group)]
                children.append(
                    MTreeNode(
                        routing=pivot,
                        radius=max(bucket_distances),
                        parent_distance=self._d(pivot, routing),
                        bucket=group,
                        bucket_distances=bucket_distances,
                    )
                )
            else:
                children.append(self._build(group, rng, parent=routing))

        radius = 0.0
        for child in children:
            radius = max(radius, child.parent_distance + child.radius)
        return MTreeNode(
            routing=routing,
            radius=radius,
            parent_distance=parent_distance,
            children=children,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(self, query_index: int, theta: float) -> list[int]:
        """All indexed objects within θ of the object at ``query_index``."""
        return self.range_query_graph(self._graphs[query_index], theta)

    def range_query_graph(self, query_graph, theta: float) -> list[int]:
        """All indexed objects within θ of an arbitrary graph."""

        def d_to(i: int) -> float:
            self.distance_calls += 1
            return float(self._engine(query_graph, self._graphs[i]))

        results: list[int] = []

        def visit(node: MTreeNode, parent_query_distance: float | None):
            # Parent-distance filter before paying for d(q, routing).
            if parent_query_distance is not None:
                if (
                    abs(parent_query_distance - node.parent_distance)
                    - node.radius
                    > theta + SLACK
                ):
                    return
            query_distance = d_to(node.routing)
            if query_distance - node.radius > theta + SLACK:
                return
            if node.is_leaf:
                for member, member_distance in zip(
                    node.bucket, node.bucket_distances
                ):
                    if member == node.routing:
                        if query_distance <= theta + SLACK:
                            results.append(member)
                        continue
                    # Triangle filters around the routing object.
                    if abs(query_distance - member_distance) > theta + SLACK:
                        continue
                    if query_distance + member_distance <= theta + SLACK:
                        results.append(member)
                        continue
                    if d_to(member) <= theta + SLACK:
                        results.append(member)
                return
            for child in node.children:
                visit(child, query_distance)

        visit(self.root, None)
        return results

    def __repr__(self) -> str:
        return f"<MTree n={len(self._graphs)} capacity={self.capacity}>"
