#!/usr/bin/env python
"""CI guard for the packed graph: bytes per graph and a dict reference.

Fails unless:

1. the n = 5 000 dud database (``dud_like(5000, seed=11)``) holds at most
   ``MAX_BYTES_PER_GRAPH`` deep bytes per graph — every object reachable
   from the graphs, each counted once, so label strings shared between
   graphs are paid once (the per-vertex dict adjacency held ~4 750);
2. its star columns (:class:`repro.engine.starbatch.StarColumns`, filled
   for every graph: vertex offsets, ready flags, root-label ids, degrees
   and branch-mask words) hold at most ``MAX_STAR_BYTES_PER_GRAPH`` bytes
   per graph (a per-graph profile object held ~1 425);
3. on ``GRAPHS`` graphs — dud molecules with their edges shuffled and
   flipped, plus random graphs with isolated vertices and repeated labels
   — every accessor equals a dict-adjacency reference built here, edge by
   edge: neighbour order, degree, ``has_edge``, ``edge_label`` (``KeyError``
   included), ``edges``, ``degrees``, ``branch_tokens``, ``edge_maps``,
   ``star``/``stars``, ``canonical_form``, ``==`` and ``hash``.

Run from the repo root: ``PYTHONPATH=src python scripts/graph_memory_guard.py``.
"""

from __future__ import annotations

import random
import sys
from array import array

from repro.datasets.dud import dud_like
from repro.engine.starbatch import BatchStarEvaluator
from repro.graphs import DEFAULT_EDGE_LABEL, LabeledGraph

DATABASE = 5000
MAX_BYTES_PER_GRAPH = 1200
MAX_STAR_BYTES_PER_GRAPH = 300
GRAPHS = 200


def deep_bytes(graphs) -> int:
    """``sys.getsizeof`` summed over everything reachable from ``graphs``,
    each object once."""
    seen: set[int] = set()
    total = 0
    stack = list(graphs)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, LabeledGraph):
            stack.extend(  # an unread digest is an empty slot
                getattr(obj, slot) for slot in LabeledGraph.__slots__
                if slot != "__weakref__" and hasattr(obj, slot)
            )
        elif not isinstance(obj, (str, int, array, type(None))):
            raise TypeError(f"no size rule for {type(obj).__name__}")
    return total


def reference(labels, edges) -> list[dict[int, str]]:
    """Per-vertex ``{neighbour: label}`` dicts in insertion order."""
    adj: list[dict[int, str]] = [{} for _ in labels]
    for edge in edges:
        u, v = edge[0], edge[1]
        label = str(edge[2]) if len(edge) == 3 else DEFAULT_EDGE_LABEL
        adj[u][v] = adj[v][u] = label
    return adj


def mismatch(g: LabeledGraph, labels, edges) -> str | None:
    """The first accessor that differs from the reference, or ``None``."""
    adj = reference(labels, edges)
    n = len(labels)
    ref_edges = [(u, v, l) for u, row in enumerate(adj) for v, l in row.items() if u < v]
    ref_stars = [
        (labels[v], tuple(sorted((l, labels[u]) for u, l in adj[v].items())))
        for v in range(n)
    ]
    checks = {
        "node_labels": g.node_labels == tuple(labels),
        "num_edges": g.num_edges == len(ref_edges),
        "neighbors": all(list(g.neighbors(v)) == list(adj[v]) for v in range(n)),
        "degree": all(g.degree(v) == len(adj[v]) for v in range(n)),
        "degrees": g.degrees() == [len(row) for row in adj],
        "branch_tokens": g.branch_tokens() == [
            [(l, labels[u]) for u, l in row.items()] for row in adj
        ],
        "edge_maps": [list(row.items()) for row in g.edge_maps()]
        == [list(row.items()) for row in adj],
        "has_edge": all(
            g.has_edge(u, v) == (v in adj[u]) for u in range(n) for v in range(n)
        ),
        "edge_label": all(
            g.edge_label(u, v) == label for u in range(n) for v, label in adj[u].items()
        ),
        "edges": list(g.edges()) == ref_edges,
        "star": all(g.star(v) == ref_stars[v] for v in range(n)),
        "stars": g.stars() == ref_stars,
        "canonical_form": g.canonical_form() == (tuple(labels), tuple(sorted(ref_edges))),
    }
    for u in range(n):
        for v in range(n):
            if v not in adj[u]:
                try:
                    g.edge_label(u, v)
                except KeyError:
                    continue
                checks["edge_label KeyError"] = False
    twin = LabeledGraph(labels, list(reversed(edges)))
    checks["== / hash"] = g == twin and hash(g) == hash(twin)
    failed = [name for name, ok in checks.items() if not ok]
    return ", ".join(failed) or None


def specs(rnd: random.Random, molecules):
    """Dud molecules with shuffled, flipped edges, then random graphs."""
    for g in molecules:
        edges = [(v, u, l) if rnd.random() < 0.5 else (u, v, l) for u, v, l in g.edges()]
        rnd.shuffle(edges)
        yield list(g.node_labels), edges
    while True:
        n = rnd.choice([0, 1, 2, 5, 12, 40, 300])
        labels = [rnd.choice("CCCNOS") for _ in range(n)]
        pairs = {
            tuple(rnd.sample(range(n), 2)) for _ in range(rnd.randint(0, 2 * n))
        } if n >= 2 else set()
        edges, seen = [], set()
        for u, v in pairs:
            if frozenset((u, v)) not in seen:
                seen.add(frozenset((u, v)))
                edges.append((u, v) if rnd.random() < 0.3 else (u, v, rnd.choice("-=#")))
        yield labels, edges


def main() -> int:
    database = dud_like(DATABASE, seed=11)
    per_graph = deep_bytes(database.graphs) / len(database)
    print(f"dud_like({DATABASE}, seed=11): {per_graph:.0f} B per graph (deep)")
    if per_graph > MAX_BYTES_PER_GRAPH:
        print(f"FAIL: above {MAX_BYTES_PER_GRAPH} B per graph")
        return 1

    owner, store = BatchStarEvaluator(graphs=database.graphs).columns()
    store.fill(owner, range(len(owner)))
    star = (len(store.ready) + sum(array.nbytes for array in (
        store.offsets, store.roots, store.degrees, store.masks
    ))) / len(database)
    print(f"star columns: {star:.0f} B per graph")
    if star > MAX_STAR_BYTES_PER_GRAPH:
        print(f"FAIL: star columns above {MAX_STAR_BYTES_PER_GRAPH} B per graph")
        return 1

    rnd = random.Random(29)
    stream = specs(rnd, database.graphs[:GRAPHS // 2])
    for count in range(GRAPHS):
        labels, edges = next(stream)
        failed = mismatch(LabeledGraph(labels, edges), labels, edges)
        if failed:
            print(f"FAIL: graph {count} (|V|={len(labels)}, |E|={len(edges)}) "
                  f"differs from the dict reference in: {failed}")
            return 1
    print(f"{GRAPHS} graphs: every accessor == the dict reference")
    print(f"graph memory guard ok ({per_graph:.0f} B per graph, "
          f"{star:.0f} B of star columns)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
