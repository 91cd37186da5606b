"""Assigning relevant graphs to their representatives.

After a top-k representative query, analysts want to know *which* graphs
each exemplar stands for — the "structural grouping" view the paper's
Fig. 7 narrates.  :func:`assign_to_representatives` partitions the covered
relevant set by nearest answer-set member (within θ), and reports the
uncovered remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.results import QueryResult
from repro.ged.metric import SLACK, GraphDistanceFn
from repro.graphs.database import GraphDatabase


@dataclass
class RepresentativeAssignment:
    """The partition of the relevant set induced by an answer."""

    #: exemplar id → sorted ids of the relevant graphs it represents
    clusters: dict[int, list[int]]
    #: relevant ids beyond θ of every exemplar
    uncovered: list[int]
    theta: float

    @property
    def cluster_sizes(self) -> dict[int, int]:
        return {gid: len(members) for gid, members in self.clusters.items()}

    def representative_of(self, gid: int) -> int | None:
        """The exemplar representing ``gid`` (None if uncovered)."""
        for exemplar, members in self.clusters.items():
            if gid in members:
                return exemplar
        return None


def assign_to_representatives(
    database: GraphDatabase,
    distance: GraphDistanceFn,
    query_fn,
    result: QueryResult,
) -> RepresentativeAssignment:
    """Partition the relevant set around the answer's exemplars.

    Each relevant graph within θ of at least one exemplar is assigned to
    its *nearest* exemplar (an exemplar is always assigned to itself);
    everything farther than θ from all exemplars lands in ``uncovered``.
    Costs ``O(|L_q| · k)`` distance evaluations.
    """
    relevant = [int(i) for i in database.relevant_indices(query_fn)]
    answer = [int(a) for a in result.answer]
    clusters: dict[int, list[int]] = {gid: [] for gid in answer}
    uncovered: list[int] = []
    for gid in relevant:
        if gid in clusters:
            clusters[gid].append(gid)
            continue
        best_exemplar = None
        best_distance = None
        for exemplar in answer:
            value = float(distance(database[gid], database[exemplar]))
            if value <= result.theta + SLACK:
                if best_distance is None or value < best_distance:
                    best_distance = value
                    best_exemplar = exemplar
        if best_exemplar is None:
            uncovered.append(gid)
        else:
            clusters[best_exemplar].append(gid)
    return RepresentativeAssignment(
        clusters={gid: sorted(members) for gid, members in clusters.items()},
        uncovered=sorted(uncovered),
        theta=result.theta,
    )
