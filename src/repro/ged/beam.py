"""Beam-search graph edit distance — a tunable approximation.

Runs the same vertex-mapping search as the exact A* solver
(:mod:`repro.ged.exact`) but keeps only the ``beam_width`` most promising
partial mappings per depth.  The result is always the cost of a *complete,
feasible* edit path, hence a valid **upper bound** on the exact GED; wider
beams approach exactness (an unbounded beam is exhaustive).

This is the classic accuracy/speed dial between the one-shot bipartite
approximation (cheapest, loosest) and exact A* (exponential):

``exact ≤ beam(w) ≤ beam(1) ≈ greedy path``, and in practice
``beam(w) ≤ bipartite`` already for small ``w``.

Not a metric (like every upper-bound approximation), so not a drop-in
distance for the NB-Index — use :class:`repro.ged.star.StarDistance` for
that; beam GED is the better *estimate* when a single accurate distance
value matters.
"""

from __future__ import annotations

import heapq

from repro import obs
from repro.ged.costs import UNIT_COSTS, UnitCostModel
from repro.graphs.graph import LabeledGraph
from repro.utils.validation import require

#: Sentinel meaning "this g1 vertex is deleted" (matches repro.ged.exact).
_DELETED = -1


class BeamGED:
    """Approximate GED via beam search over vertex mappings.

    Parameters
    ----------
    beam_width:
        Partial mappings kept per depth.  1 = greedy descent; larger
        values tighten the bound toward exact GED.
    costs:
        Edit cost model (defaults to unit costs).
    """

    def __init__(self, beam_width: int = 8, costs: UnitCostModel = UNIT_COSTS):
        require(beam_width >= 1, f"beam_width must be >= 1, got {beam_width}")
        self.beam_width = beam_width
        self.costs = costs

    def __call__(self, g1: LabeledGraph, g2: LabeledGraph) -> float:
        obs.counter("ged.beam.calls")
        n1, n2 = g1.num_nodes, g2.num_nodes
        costs = self.costs
        order = sorted(range(n1), key=g1.degree, reverse=True)
        adj1, adj2 = g1.edge_maps(), g2.edge_maps()

        # Each beam entry: (cost_so_far, mapping tuple over g2 ids/_DELETED)
        beam: list[tuple[float, tuple[int, ...]]] = [(0.0, ())]
        expansions = 0
        for i in range(n1):
            u = order[i]
            u_label = g1.node_label(u)
            candidates: list[tuple[float, tuple[int, ...]]] = []
            for cost_so_far, mapping in beam:
                used = set(v for v in mapping if v != _DELETED)
                # Substitution options.
                for v in g2.nodes():
                    if v in used:
                        continue
                    step = costs.node_substitution(u_label, g2.node_label(v))
                    for j in range(i):
                        w = mapping[j]
                        e1 = order[j] in adj1[u]
                        e2 = w != _DELETED and w in adj2[v]
                        if e1 and e2:
                            step += costs.edge_substitution(
                                adj1[u][order[j]],
                                adj2[v][w],
                            )
                        elif e1:
                            step += costs.edge_indel(adj1[u][order[j]])
                        elif e2:
                            step += costs.edge_indel(adj2[v][w])
                    candidates.append((cost_so_far + step, mapping + (v,)))
                # Deletion option.
                step = costs.node_indel(u_label)
                for j in range(i):
                    if order[j] in adj1[u]:
                        step += costs.edge_indel(adj1[u][order[j]])
                candidates.append((cost_so_far + step, mapping + (_DELETED,)))
            expansions += len(candidates)
            beam = heapq.nsmallest(self.beam_width, candidates)
        obs.counter("ged.beam.expansions", expansions)

        best = float("inf")
        for cost_so_far, mapping in beam:
            used = set(v for v in mapping if v != _DELETED)
            completion = sum(
                costs.node_indel(g2.node_label(v))
                for v in g2.nodes() if v not in used
            )
            completion += sum(
                costs.edge_indel(label)
                for a, b, label in g2.edges()
                if a not in used or b not in used
            )
            best = min(best, cost_so_far + completion)
        return best

    def __repr__(self) -> str:
        return f"BeamGED(beam_width={self.beam_width}, costs={self.costs!r})"
