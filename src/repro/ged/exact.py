"""Exact graph edit distance via A* search.

Computing GED is NP-hard [28]; this module implements the classical exact
A* formulation (Riesen/Bunke lineage): vertices of ``g1`` are processed in a
fixed order and each is either substituted for an unused vertex of ``g2`` or
deleted, with edge costs charged incrementally as both endpoints of an edge
become decided.  The heuristic combines a label-multiset matching bound on
the undecided vertices with an edge-count bound on the undecided edges —
both admissible, so the returned distance is exact.

Because the vertex processing order is fixed, every search state is reached
exactly once (the search space is a tree), so no closed set is needed.

This solver is meant for *small* graphs (≈ 10 vertices) — enough for the
test suite to validate every approximate distance and bound in the library,
and for exact experiments on toy databases.  Benchmark-scale databases use
the polynomial star edit distance (see :mod:`repro.ged.star` and DESIGN.md).
"""

from __future__ import annotations

import heapq
import itertools

from repro import obs
from repro.ged.costs import UNIT_COSTS, UnitCostModel
from repro.graphs.graph import LabeledGraph
from repro.resilience import faults
from repro.resilience.deadline import current_deadline

_INF = float("inf")

#: A* loop iterations between deadline checks.
_DEADLINE_STRIDE = 64

#: Sentinel in a mapping tuple meaning "this g1 vertex is deleted".
DELETED = -1


class ExactGED:
    """Exact GED oracle with a pluggable cost model.

    Instances are callables: ``distance = ExactGED()(g1, g2)``.

    Parameters
    ----------
    costs:
        The edit cost model; defaults to unit costs (the paper's setting).
    """

    def __init__(self, costs: UnitCostModel = UNIT_COSTS):
        self.costs = costs

    def __call__(
        self,
        g1: LabeledGraph,
        g2: LabeledGraph,
        limit: float = _INF,
    ) -> float:
        """The exact edit distance, or ``inf`` if it provably exceeds ``limit``.

        The ``limit`` short-circuit makes range queries (``d ≤ θ``?) cheap:
        once every frontier state has ``f > limit`` the search stops.

        Under an active :class:`~repro.resilience.Deadline` the A* search
        checks it as it runs and raises
        :class:`~repro.resilience.BudgetExceeded` on expiry — see
        ``docs/resilience.md``.
        """
        obs.counter("ged.exact.calls")
        faults.maybe_slow("ged.exact")
        return _astar_ged(g1, g2, self.costs, limit, current_deadline())

    def within(self, g1: LabeledGraph, g2: LabeledGraph, threshold: float) -> bool:
        """``d(g1, g2) <= threshold`` without always computing ``d`` fully."""
        return self(g1, g2, limit=threshold) <= threshold

    def __repr__(self) -> str:
        return f"ExactGED(costs={self.costs!r})"


def _astar_ged(
    g1: LabeledGraph,
    g2: LabeledGraph,
    costs: UnitCostModel,
    limit: float,
    deadline=None,
) -> float:
    if deadline is not None:
        deadline.check()
    n1, n2 = g1.num_nodes, g2.num_nodes
    # Process high-degree vertices first: their edge costs are decided early,
    # which tightens g-costs and prunes sooner.
    order = sorted(range(n1), key=g1.degree, reverse=True)
    adj1, adj2 = g1.edge_maps(), g2.edge_maps()

    # Suffix label histograms of g1 under the processing order: labels of the
    # not-yet-processed vertices after step i.
    suffix_hists: list[dict[str, int]] = [dict() for _ in range(n1 + 1)]
    for i in range(n1 - 1, -1, -1):
        hist = dict(suffix_hists[i + 1])
        label = g1.node_label(order[i])
        hist[label] = hist.get(label, 0) + 1
        suffix_hists[i] = hist

    # Number of g1 edges with at least one endpoint still unprocessed, per
    # prefix length.  Edge (u, v) is "decided" once both endpoints are
    # processed.
    position = {v: i for i, v in enumerate(order)}
    remaining_e1 = [0] * (n1 + 1)
    for u, v, _ in g1.edges():
        decided_at = max(position[u], position[v]) + 1
        for i in range(decided_at):
            remaining_e1[i] += 1

    g2_labels = g2.label_histogram()
    total_e2 = g2.num_edges

    node_sub_max = costs.max_node_op_cost

    def heuristic(i: int, used_labels: dict[str, int], decided_e2: int) -> float:
        """Admissible bound on the cost of completing a prefix of length i."""
        remaining1 = suffix_hists[i]
        size1 = sum(remaining1.values())
        size2 = n2 - sum(used_labels.values())
        common = 0
        for label, count in remaining1.items():
            available = g2_labels.get(label, 0) - used_labels.get(label, 0)
            if available > 0:
                common += min(count, available)
        # min(size1, size2) - common substitutions of differing labels plus
        # |size1 - size2| insertions/deletions.
        sub_cost = costs.node_substitution("a", "b")
        indel_cost = costs.node_indel("a")
        node_part = sub_cost * max(0, min(size1, size2) - common) + indel_cost * abs(
            size1 - size2
        )
        edge_part = costs.edge_indel("-") * abs(
            remaining_e1[i] - (total_e2 - decided_e2)
        )
        return node_part + edge_part

    # State: (f, tiebreak, g_cost, i, mapping, used_labels, decided_e2)
    # mapping is a tuple of length i over g2 vertex ids / DELETED;
    # used_labels is the label histogram of the matched g2 vertices;
    # decided_e2 is the number of g2 edges with both endpoints matched.
    counter = itertools.count()
    start_h = heuristic(0, {}, 0)
    if start_h > limit:
        return _INF
    heap: list[tuple] = [(start_h, next(counter), 0.0, 0, (), {}, 0)]

    expanded = 0
    while heap:
        f, _, g_cost, i, mapping, used_labels, decided_e2 = heapq.heappop(heap)
        expanded += 1
        if deadline is not None and expanded % _DEADLINE_STRIDE == 0:
            deadline.check()
        if f > limit:
            obs.counter("ged.exact.expansions", expanded)
            return _INF
        if i == n1:
            # Completion: insert all unused g2 vertices and every g2 edge
            # with at least one unmatched endpoint.
            used = frozenset(v for v in mapping if v != DELETED)
            completion = 0.0
            for v in g2.nodes():
                if v not in used:
                    completion += costs.node_indel(g2.node_label(v))
            for a, b, label in g2.edges():
                if a not in used or b not in used:
                    completion += costs.edge_indel(label)
            total = g_cost + completion
            if total <= limit:
                obs.counter("ged.exact.expansions", expanded)
                return total
            continue

        u = order[i]
        u_label = g1.node_label(u)
        used = set(v for v in mapping if v != DELETED)

        # Option 1: substitute u with each unused g2 vertex.
        for v in g2.nodes():
            if v in used:
                continue
            step = costs.node_substitution(u_label, g2.node_label(v))
            # Edge costs against every previously processed g1 vertex.
            for j in range(i):
                w = mapping[j]
                e1 = order[j] in adj1[u]
                e2 = w != DELETED and w in adj2[v]
                if e1 and e2:
                    step += costs.edge_substitution(
                        adj1[u][order[j]], adj2[v][w]
                    )
                elif e1:
                    step += costs.edge_indel(adj1[u][order[j]])
                elif e2:
                    step += costs.edge_indel(adj2[v][w])
            new_g = g_cost + step
            new_used_labels = dict(used_labels)
            v_label = g2.node_label(v)
            new_used_labels[v_label] = new_used_labels.get(v_label, 0) + 1
            new_decided = decided_e2 + sum(
                1 for w in used if w in adj2[v]
            )
            h = heuristic(i + 1, new_used_labels, new_decided)
            new_f = new_g + h
            if new_f <= limit:
                heapq.heappush(
                    heap,
                    (new_f, next(counter), new_g, i + 1, mapping + (v,),
                     new_used_labels, new_decided),
                )

        # Option 2: delete u (its edges to processed vertices are deleted too).
        step = costs.node_indel(u_label)
        for j in range(i):
            if order[j] in adj1[u]:
                step += costs.edge_indel(adj1[u][order[j]])
        new_g = g_cost + step
        h = heuristic(i + 1, used_labels, decided_e2)
        new_f = new_g + h
        if new_f <= limit:
            heapq.heappush(
                heap,
                (new_f, next(counter), new_g, i + 1, mapping + (DELETED,),
                 used_labels, decided_e2),
            )

    obs.counter("ged.exact.expansions", expanded)
    return _INF


def edit_path_cost(
    g1: LabeledGraph,
    g2: LabeledGraph,
    mapping: dict[int, int | None],
    costs: UnitCostModel = UNIT_COSTS,
) -> float:
    """Cost of the edit path induced by a *complete* vertex mapping.

    ``mapping[u]`` is the g2 vertex that g1 vertex ``u`` maps to, or ``None``
    for deletion; every g1 vertex must appear and no g2 vertex may be used
    twice.  g2 vertices absent from the image are inserted.  The result is a
    valid upper bound on the exact edit distance for any mapping, and equals
    it for an optimal one.
    """
    if set(mapping.keys()) != set(g1.nodes()):
        raise ValueError("mapping must cover every vertex of g1")
    targets = [v for v in mapping.values() if v is not None]
    if len(targets) != len(set(targets)):
        raise ValueError("mapping must be injective on matched vertices")

    total = 0.0
    # Node operations.
    for u in g1.nodes():
        v = mapping[u]
        if v is None:
            total += costs.node_indel(g1.node_label(u))
        else:
            total += costs.node_substitution(g1.node_label(u), g2.node_label(v))
    used = set(targets)
    for v in g2.nodes():
        if v not in used:
            total += costs.node_indel(g2.node_label(v))
    # Edge operations: g1 edges mapped / deleted.  Each g2 edge is the
    # image of at most one g1 edge; the ones left unclaimed are inserted.
    unclaimed = {(a, b): label for a, b, label in g2.edges()}
    for u, w, label in g1.edges():
        mu, mw = mapping[u], mapping[w]
        image = None
        if mu is not None and mw is not None:
            image = unclaimed.pop((mu, mw) if mu < mw else (mw, mu), None)
        if image is None:
            total += costs.edge_indel(label)
        else:
            total += costs.edge_substitution(label, image)
    for label in unclaimed.values():
        total += costs.edge_indel(label)
    return total
