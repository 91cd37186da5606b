"""Database partitioners: assign every graph to one of S shards.

Two strategies, both deterministic for a fixed (database, S, seed):

* **hash** — crc32 of each graph's canonical form modulo S.  The digest is
  the same one :func:`~repro.index.persistence.database_fingerprint` uses,
  so the assignment is a pure function of graph *structure*: stable across
  processes, reorderings of equal databases, and Python hash randomization.
* **clustering** — farthest-first traversal picks S pivot graphs, then
  every graph joins its nearest pivot's shard (ties to the lowest pivot),
  so metrically close graphs share an artifact file.

A partition decides only which artifact file holds a graph's frame row —
and so which files a compaction rewrites and a hot reload reads.  Queries
never see it: a loaded bundle is one index over its vantage frame with
one frontier, so answers and query work are the same for *any*
assignment.  Every shard is guaranteed non-empty (an empty shard would
produce an unloadable empty sub-database): empty slots steal the
smallest-id graph from the largest shard, deterministically.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.engine import DistanceEngine
from repro.graphs.database import GraphDatabase
from repro.shard.errors import PartitionError
from repro.utils.validation import require


@dataclass(frozen=True)
class Partition:
    """A complete shard assignment: ``assignments[gid] -> shard id``."""

    assignments: np.ndarray
    num_shards: int
    partitioner: str
    seed: int | None = None

    def members(self, shard_id: int) -> np.ndarray:
        """Global graph ids assigned to ``shard_id``, ascending."""
        return np.flatnonzero(self.assignments == shard_id)

    def sizes(self) -> list[int]:
        return [int(self.members(s).size) for s in range(self.num_shards)]


def _ensure_nonempty(assignments: np.ndarray, num_shards: int) -> np.ndarray:
    """Deterministically repair empty shards by stealing one graph each
    from the currently largest shard (smallest donor id moves)."""
    assignments = assignments.copy()
    for shard in range(num_shards):
        if np.any(assignments == shard):
            continue
        counts = np.bincount(assignments, minlength=num_shards)
        donor = int(np.argmax(counts))
        if counts[donor] <= 1:
            raise PartitionError(
                f"cannot repair empty shard {shard}: no shard has more "
                f"than one graph"
            )
        moved = int(np.flatnonzero(assignments == donor)[0])
        assignments[moved] = shard
    return assignments


class HashPartitioner:
    """Structure-hash assignment: ``crc32(canonical_form(g)) mod S``."""

    name = "hash"

    def assign(
        self,
        database: GraphDatabase,
        num_shards: int,
        *,
        seed: int | None = None,
        distance=None,
    ) -> Partition:
        digests = np.array(
            [zlib.crc32(repr(g.canonical_form()).encode()) for g in database],
            dtype=np.uint64,
        )
        assignments = (digests % np.uint64(num_shards)).astype(np.int64)
        assignments = _ensure_nonempty(assignments, num_shards)
        return Partition(assignments, num_shards, self.name, seed)


class ClusteringPartitioner:
    """Metric-clustering assignment: farthest-first pivots, nearest-pivot
    membership — which file holds a row, never what a query costs (see the
    module docstring).

    Needs ``distance``: the metric, or a
    :class:`~repro.engine.DistanceEngine` over the database — the pivot
    scans are engine batches and stay in its pair cache for the caller.
    """

    name = "clustering"

    def assign(
        self,
        database: GraphDatabase,
        num_shards: int,
        *,
        seed: int | None = None,
        distance=None,
    ) -> Partition:
        require(distance is not None, "clustering partitioner needs a distance")
        engine = DistanceEngine.of(distance, database.graphs)
        n = len(database)
        rng = np.random.default_rng(seed)

        def scan(pivot: int) -> np.ndarray:
            return np.asarray(
                engine.one_to_many(database[pivot], database.graphs),
                dtype=float,
            )

        first = int(rng.integers(n))
        pivots = [first]
        pivot_rows = [scan(first)]
        min_dist = pivot_rows[0].copy()
        while len(pivots) < num_shards:
            nxt = int(np.argmax(min_dist))
            pivots.append(nxt)
            pivot_rows.append(scan(nxt))
            np.minimum(min_dist, pivot_rows[-1], out=min_dist)
        # Nearest pivot wins; np.argmin resolves distance ties to the
        # earliest-selected pivot, which is itself seed-deterministic.
        matrix = np.vstack(pivot_rows)
        assignments = np.argmin(matrix, axis=0).astype(np.int64)
        assignments = _ensure_nonempty(assignments, num_shards)
        return Partition(assignments, num_shards, self.name, seed)


PARTITIONERS = {p.name: p for p in (HashPartitioner(), ClusteringPartitioner())}


def get_partitioner(name: str):
    """Look up a partitioner by name (``hash`` or ``clustering``)."""
    try:
        return PARTITIONERS[name]
    except KeyError:
        raise PartitionError(
            f"unknown partitioner {name!r}; available: "
            f"{sorted(PARTITIONERS)}"
        ) from None
