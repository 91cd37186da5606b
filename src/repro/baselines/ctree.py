"""C-tree style structural index (He & Singh, Closure-tree, ICDE'06 [12]).

The closure-tree groups structurally similar graphs under hierarchical
*closures* — structural summaries that admit edit-distance lower bounds for
pruning.  The original stores wildcard-labelled closure graphs; this
implementation keeps the same architecture with an envelope closure that is
cheap and correct for our metrics:

* per-label node-count *maxima* across the subtree,
* node-count and edge-count ranges.

For a query graph ``g`` and a subtree whose members all satisfy the
envelope, every member ``h`` obeys::

    d(g, h) ≥ max(|V_g|, n_lo) − Σ_label min(count_g, count_hi)    (labels)
            + max(0, |E_g| − e_hi, e_lo − |E_g|)                   (edges)

— the label/size lower bound evaluated against the loosest member the
envelope allows.  The bound is valid for the exact unit-cost GED *and* for
the star edit distance (both dominate the label/size bound; see
``repro.ged.bounds``), so the index serves either metric.

Graphs are clustered by structural similarity using the same
farthest-first partitioning as the other trees, but pruning is purely
structural — no metric balls — which is the characteristic C-tree
behaviour the paper compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine import DistanceEngine
from repro.ged.metric import SLACK, GraphDistanceFn
from repro.graphs.graph import LabeledGraph
from repro.utils.rng import ensure_rng
from repro.utils.validation import require


@dataclass
class Closure:
    """Structural envelope of a set of graphs."""

    label_max: dict[str, int]
    nodes_lo: int
    nodes_hi: int
    edges_lo: int
    edges_hi: int

    @classmethod
    def of_graph(cls, g: LabeledGraph) -> "Closure":
        return cls(
            label_max=g.label_histogram(),
            nodes_lo=g.num_nodes,
            nodes_hi=g.num_nodes,
            edges_lo=g.num_edges,
            edges_hi=g.num_edges,
        )

    @classmethod
    def union(cls, closures) -> "Closure":
        closures = list(closures)
        require(len(closures) > 0, "union of zero closures")
        label_max: dict[str, int] = {}
        for closure in closures:
            for label, count in closure.label_max.items():
                if count > label_max.get(label, 0):
                    label_max[label] = count
        return cls(
            label_max=label_max,
            nodes_lo=min(c.nodes_lo for c in closures),
            nodes_hi=max(c.nodes_hi for c in closures),
            edges_lo=min(c.edges_lo for c in closures),
            edges_hi=max(c.edges_hi for c in closures),
        )

    def distance_lower_bound(self, g: LabeledGraph) -> float:
        """Lower bound on ``d(g, h)`` for every graph ``h`` in the envelope."""
        g_hist = g.label_histogram()
        common_max = sum(
            min(count, self.label_max.get(label, 0))
            for label, count in g_hist.items()
        )
        label_bound = max(g.num_nodes, self.nodes_lo) - common_max
        edge_bound = max(0, g.num_edges - self.edges_hi, self.edges_lo - g.num_edges)
        return float(max(0, label_bound) + edge_bound)


@dataclass
class CTreeNode:
    closure: Closure
    children: list["CTreeNode"] = field(default_factory=list)
    bucket: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class CTree:
    """Closure-tree over a graph collection, supporting range queries.

    ``distance`` is the metric or a :class:`~repro.engine.DistanceEngine`
    over it; the bulk-load's per-pivot member scans run as engine batches
    and ``distance_calls`` counts every pair asked for, cached or not.
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
        self.root = self._build(list(range(len(graphs))), rng)

    def stats(self) -> dict:
        """Statable protocol: build-work accounting."""
        return {"distance_calls": self.distance_calls, "capacity": self.capacity}

    def _d(self, g: LabeledGraph, j: int) -> float:
        self.distance_calls += 1
        return float(self._engine(g, self._graphs[j]))

    def _scan(self, source: int, members: list[int]) -> np.ndarray:
        """``d(source, m)`` per member, 0.0 at ``source`` itself."""
        source_graph = self._graphs[source]
        others = [m for m in members if m != source]
        self.distance_calls += len(others)
        values = iter(
            self._engine.one_to_many(
                source_graph, [self._graphs[m] for m in others]
            )
        )
        return np.array(
            [0.0 if m == source else float(next(values)) for m in members]
        )

    def _build(self, members: list[int], rng) -> CTreeNode:
        if len(members) <= self.capacity:
            closure = Closure.union(
                Closure.of_graph(self._graphs[m]) for m in members
            )
            return CTreeNode(closure=closure, bucket=list(members))
        first = members[int(rng.integers(len(members)))]
        pivots = [first]
        min_dist = self._scan(first, members)
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
                closure = Closure.union(
                    Closure.of_graph(self._graphs[m]) for m in group
                )
                children.append(CTreeNode(closure=closure, bucket=group))
            else:
                children.append(self._build(group, rng))
        return CTreeNode(
            closure=Closure.union(child.closure for child in children),
            children=children,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(self, query_index: int, theta: float) -> list[int]:
        """All indexed graphs within θ of the graph at ``query_index``."""
        return self.range_query_graph(self._graphs[query_index], theta)

    def range_query_graph(self, query_graph: LabeledGraph, theta: float) -> list[int]:
        """All indexed graphs within θ of an arbitrary graph."""
        results: list[int] = []

        def visit(node: CTreeNode):
            if node.closure.distance_lower_bound(query_graph) > theta + SLACK:
                return
            if node.is_leaf:
                for member in node.bucket:
                    if self._d(query_graph, member) <= theta + SLACK:
                        results.append(member)
                return
            for child in node.children:
                visit(child)

        visit(self.root)
        return results

    def __repr__(self) -> str:
        return f"<CTree n={len(self._graphs)} capacity={self.capacity}>"
