"""Representative power machinery (Definitions 1–2, Eq. 3).

These are the semantic primitives every engine shares: θ-neighborhoods over
the relevant set, set coverage, and the normalized representative power π.
They are deliberately engine-agnostic — computed from explicit distances or
through any range-query backend — so they double as the ground truth that
index-accelerated engines are tested against.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.ged.metric import SLACK, GraphDistanceFn
from repro.graphs.database import GraphDatabase


#: A range-query backend: ``(graph_id, theta) -> candidate ids`` restricted
#: to some universe the backend was built over.
RangeQueryFn = Callable[[int, float], Iterable[int]]


def theta_neighborhood(
    database: GraphDatabase,
    distance: GraphDistanceFn,
    gid: int,
    relevant: Sequence[int],
    theta: float,
) -> frozenset[int]:
    """``N_θ(g)`` over the relevant set, by direct distance evaluation."""
    graph = database[gid]
    members = set()
    for other in relevant:
        other = int(other)
        if other == gid:
            members.add(other)
        elif distance(graph, database[other]) <= theta + SLACK:
            members.add(other)
    return frozenset(members)


def all_theta_neighborhoods(
    database: GraphDatabase,
    distance: GraphDistanceFn,
    relevant: Sequence[int],
    theta: float,
    range_query: RangeQueryFn | None = None,
    engine=None,
) -> dict[int, frozenset[int]]:
    """θ-neighborhoods of every relevant graph.

    This is the quadratic bottleneck of Algorithm 1 (lines 6–7 of the
    paper's pseudocode run over these sets).  When ``range_query`` is
    given — e.g. an M-tree or C-tree range search — candidates come from
    the backend and only they are distance-verified; otherwise all
    ``O(|L_q|²)`` pairs are evaluated (symmetrically, each pair once) —
    as row batches through ``engine`` when one is supplied, producing the
    same membership sets.
    """
    relevant = [int(i) for i in relevant]
    neighborhoods: dict[int, set[int]] = {gid: {gid} for gid in relevant}
    if range_query is not None:
        relevant_set = set(relevant)
        for gid in relevant:
            for candidate in range_query(gid, theta):
                candidate = int(candidate)
                if candidate in relevant_set:
                    neighborhoods[gid].add(candidate)
        return {gid: frozenset(members) for gid, members in neighborhoods.items()}
    if engine is not None:
        attached = engine.graphs is database.graphs
        for a_pos, gid in enumerate(relevant):
            rest = relevant[a_pos + 1:]
            if not rest:
                break
            refs = rest if attached else [database[other] for other in rest]
            source = gid if attached else database[gid]
            mask = engine.within(source, refs, theta)
            for other, within in zip(rest, mask):
                if within:
                    neighborhoods[gid].add(other)
                    neighborhoods[other].add(gid)
        return {gid: frozenset(members) for gid, members in neighborhoods.items()}
    for a_pos, gid in enumerate(relevant):
        graph = database[gid]
        for other in relevant[a_pos + 1:]:
            if distance(graph, database[other]) <= theta + SLACK:
                neighborhoods[gid].add(other)
                neighborhoods[other].add(gid)
    return {gid: frozenset(members) for gid, members in neighborhoods.items()}


def coverage(
    neighborhoods: Mapping[int, frozenset[int]],
    subset: Iterable[int],
) -> frozenset[int]:
    """``∪_{g ∈ subset} N_θ(g)`` — the relevant graphs represented."""
    covered: set[int] = set()
    for gid in subset:
        covered |= neighborhoods[int(gid)]
    return frozenset(covered)


def representative_power(
    neighborhoods: Mapping[int, frozenset[int]],
    subset: Iterable[int],
    num_relevant: int,
) -> float:
    """π(S) per Eq. 3: covered fraction of the relevant set."""
    if num_relevant == 0:
        return 0.0
    return len(coverage(neighborhoods, subset)) / num_relevant


def marginal_gain(
    neighborhoods: Mapping[int, frozenset[int]],
    covered: set[int] | frozenset[int],
    gid: int,
) -> int:
    """``|N_θ(g) \\ covered|`` — the greedy selection criterion."""
    return len(neighborhoods[int(gid)] - covered)


def verify_submodularity(
    neighborhoods: Mapping[int, frozenset[int]],
    num_relevant: int,
    small: Sequence[int],
    large: Sequence[int],
    extra: int,
) -> bool:
    """Check Eq. 4 for one (S ⊆ T, g) witness — used by property tests."""
    small_set = set(int(i) for i in small)
    large_set = set(int(i) for i in large)
    if not small_set <= large_set:
        raise ValueError("small must be a subset of large")
    gain_small = representative_power(
        neighborhoods, small_set | {extra}, num_relevant
    ) - representative_power(neighborhoods, small_set, num_relevant)
    gain_large = representative_power(
        neighborhoods, large_set | {extra}, num_relevant
    ) - representative_power(neighborhoods, large_set, num_relevant)
    return gain_small >= gain_large - 1e-12
