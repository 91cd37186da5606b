"""Star edit distance — a polynomial *metric* on labelled graphs.

The paper's distance is graph edit distance, which is NP-hard; its own
reference for computing/approximating GED is Zeng et al., *Comparing Stars:
On Approximating Graph Edit Distance* (PVLDB'09) [28].  Following that work,
a graph is summarized by the multiset of its vertex *stars* (vertex label +
multiset of ``(edge label, neighbor label)`` branch tokens) and two graphs
are compared by an optimal assignment between their star multisets.

Our star-to-star ground cost is designed so the resulting assignment
distance is a true metric (symmetry, identity of indiscernibles on star
multisets, and the triangle inequality) — which is exactly what the
NB-Index machinery (Theorems 3–8) requires of ``d``:

* root cost: 0/1 on label equality (a discrete metric);
* branch cost: the optimal unit-cost matching between the two branch-token
  multisets, which has the closed form ``(|deg₁ − deg₂| + L1(c₁, c₂)) / 2``
  where ``c`` are branch-token count vectors — itself a metric;
* the null star (used to pad unequal vertex counts) costs ``1 + deg`` to
  delete, consistent with the triangle inequality against real stars.

The assignment ("matching") distance over multisets with a metric ground
cost including a null element is a metric, so
:class:`StarDistance` is metric by construction; the test suite verifies the
triangle inequality property-based and against exact GED on small graphs.

The same machinery yields Zeng-style bounds on the *exact* GED:
:func:`star_ged_lower_bound` (the assignment value divided by
``max(4, Δ + 1)``) and a bipartite upper bound lives in
:mod:`repro.ged.bipartite`.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.ged.lsap import linear_sum_assignment
from repro.graphs.graph import LabeledGraph
from repro.utils.idweak import IdWeakMap

#: Off-diagonal padding cost — larger than any real star cost can be.
_BIG = 1e12


class _StarProfile:
    """Cached numeric star representation of one graph.

    ``roots`` are vertex-label ids, ``tokens[v]`` the sorted branch-token id
    array of vertex ``v``; the dense per-vertex token-count matrix against a
    joint vocabulary is built lazily per comparison.
    """

    __slots__ = ("roots", "token_counts", "degrees")

    def __init__(self, g: LabeledGraph):
        rows = g.branch_tokens()
        self.roots: list[str] = list(g.node_labels)
        self.degrees = np.array(list(map(len, rows)), dtype=float)
        counts: list[dict[tuple[str, str], int]] = []
        for branches in rows:
            branch_counts: dict[tuple[str, str], int] = {}
            for token in branches:
                branch_counts[token] = branch_counts.get(token, 0) + 1
            counts.append(branch_counts)
        self.token_counts = counts


def _star_cost_matrix(p1: _StarProfile, p2: _StarProfile) -> np.ndarray:
    """Pairwise star ground costs between all vertices of two graphs.

    ``cost[u, v] = [root_u ≠ root_v] + (|deg_u − deg_v| + L1(c_u, c_v)) / 2``.
    """
    vocabulary: dict[tuple[str, str], int] = {}
    for counts in p1.token_counts:
        for token in counts:
            vocabulary.setdefault(token, len(vocabulary))
    for counts in p2.token_counts:
        for token in counts:
            vocabulary.setdefault(token, len(vocabulary))

    def dense(profile: _StarProfile) -> np.ndarray:
        matrix = np.zeros((len(profile.token_counts), max(len(vocabulary), 1)))
        for v, counts in enumerate(profile.token_counts):
            for token, count in counts.items():
                matrix[v, vocabulary[token]] = count
        return matrix

    c1, c2 = dense(p1), dense(p2)
    # City-block distances between count rows; small integers, so exact.
    l1 = np.abs(c1[:, None, :] - c2[None, :, :]).sum(axis=2)
    deg_diff = np.abs(p1.degrees[:, None] - p2.degrees[None, :])
    roots1 = np.array(p1.roots)
    roots2 = np.array(p2.roots)
    root_cost = (roots1[:, None] != roots2[None, :]).astype(float)
    return root_cost + (deg_diff + l1) / 2.0


def _padded_cost_matrix(p1: _StarProfile, p2: _StarProfile) -> np.ndarray:
    """Square Riesen–Bunke style cost matrix with null-star padding.

    Layout ``[[C, D], [I, 0]]`` where ``D`` is diagonal deletion costs
    (``1 + deg``), ``I`` diagonal insertion costs, and the zero block lets
    surplus null stars match each other for free.
    """
    n1, n2 = len(p1.roots), len(p2.roots)
    size = n1 + n2
    matrix = np.full((size, size), _BIG)
    matrix[:n1, :n2] = _star_cost_matrix(p1, p2)
    for i in range(n1):
        matrix[i, n2 + i] = 1.0 + p1.degrees[i]
    for j in range(n2):
        matrix[n1 + j, j] = 1.0 + p2.degrees[j]
    matrix[n1:, n2:] = 0.0
    return matrix


class StarDistance:
    """The star edit distance: a polynomial metric on labelled graphs.

    Instances are callables returning a float.  Star profiles are cached per
    graph object (keyed by ``id``, weakref-guarded against id recycling), so
    repeated distance evaluations against the same database — the dominant
    access pattern in all index structures — only pay the assignment cost,
    while transient graphs are evicted as they are collected.

    ``normalized=True`` divides the raw assignment value by
    ``max(4, Δ + 1)`` with ``Δ`` the larger maximum degree, following the
    lower-bound normalization of Zeng et al.; the default keeps the raw
    (integer-valued, larger-spread) distance, which matches the scale of the
    paper's edit-distance thresholds better.
    """

    def __init__(self, normalized: bool = False):
        self.normalized = normalized
        # Weakly keyed, so transient-graph workloads (property tests, live
        # mutations) can't inherit a stale profile or grow the cache
        # without bound.
        self._profiles = IdWeakMap(_StarProfile)

    def assignment(self, g1: LabeledGraph, g2: LabeledGraph):
        """The optimal star assignment: ``(rows, cols, raw_value)``.

        Row/column indices refer to the padded matrix; entries below the
        real vertex counts encode vertex substitutions, the rest padding.
        """
        p1, p2 = self._profiles[g1], self._profiles[g2]
        matrix = _padded_cost_matrix(p1, p2)
        rows, cols = linear_sum_assignment(matrix)
        value = float(matrix[rows, cols].sum())
        return rows, cols, value

    def __call__(self, g1: LabeledGraph, g2: LabeledGraph) -> float:
        obs.counter("ged.star.calls")
        if g1.num_nodes == 0 and g2.num_nodes == 0:
            return 0.0
        _, _, value = self.assignment(g1, g2)
        if self.normalized:
            max_degree = max(g1.degrees() + g2.degrees() + [0])
            return value / max(4.0, max_degree + 1.0)
        return value

    def clear_cache(self) -> None:
        self._profiles.clear()

    def __repr__(self) -> str:
        return f"StarDistance(normalized={self.normalized})"


def star_assignment_value(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Raw optimal star-assignment value λ(g1, g2) (one-shot, uncached)."""
    if g1.num_nodes == 0 and g2.num_nodes == 0:
        return 0.0
    _, _, value = StarDistance().assignment(g1, g2)
    return value


def star_ged_lower_bound(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Zeng-style lower bound on exact GED: ``λ / max(4, Δ + 1)``.

    Each unit-cost edit operation perturbs the star assignment value by at
    most ``max(4, Δ + 1)`` (a node relabel touches its own star and every
    neighbour's branch token), so the exact GED is at least this quotient.
    """
    value = star_assignment_value(g1, g2)
    max_degree = max(g1.degrees() + g2.degrees() + [0])
    return value / max(4.0, max_degree + 1.0)
