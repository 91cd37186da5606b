"""`ShardedIndex`: S per-shard NB-Indexes behind the single-index API.

Load a manifest bundle (or build one in place) and query it exactly like
an :class:`~repro.index.NBIndex` — same ``query(query_fn, theta, k)``
signature, same keyword arguments, same :class:`QueryResult`, and (by the
coordinator's canonical selection rule) the *same bits* in the answer.

The global :class:`~repro.engine.DistanceEngine` attached here handles
every cross-shard distance using global graph ids; per-shard engines speak
only their own renumbered local ids.  Keeping the two id spaces in
separate engines is what keeps the shared pair caches sound.

Every shard's coordinates are rows of one
:class:`~repro.index.vantage.VantageFrame`: what a frontier needs to know
about a graph on another shard is an array slice.

Hot reload support: :meth:`load` accepts the previously served instance
and *reuses* any shard object whose artifact checksum, member set and
frame are unchanged in the new manifest — reloading a bundle where one
shard was rebuilt reads exactly one shard's worth of disk; the frame is
re-assembled from the shards' coordinate blocks in memory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import obs
from repro.core.results import QueryResult
from repro.graphs.database import GraphDatabase
from repro.index.errors import ReadOnlyIndexError
from repro.index.frontier import TreeState
from repro.index.nbindex import NBIndex, QueryRun, check_query_kwargs
from repro.index.persistence import load_index
from repro.index.pivec import ThresholdLadder
from repro.index.vantage import VantageFrame
from repro.resilience.errors import DatabaseMismatchError
from repro.shard.coordinator import ShardedQuerySession
from repro.shard.frontier import ShardFrontier
from repro.shard.manifest import ShardManifest, database_checksum


class ShardedIndex:
    """S shard NB-Indexes + manifest + frame + global engine, queryable as
    one — a read-only view of its manifest generation."""

    def __init__(
        self,
        database: GraphDatabase,
        distance,
        *,
        shards: list[NBIndex],
        manifest: ShardManifest,
        frame: VantageFrame,
        engine,
        path: Path | None = None,
        reused_shards: int = 0,
    ):
        self.database = database
        self.distance = distance
        self.shards = list(shards)
        self.manifest = manifest
        self.frame = frame
        self.engine = engine
        self.path = path
        self.reused_shards = reused_shards
        self.ladder = ThresholdLadder(manifest.ladder)
        self.shard_of = np.asarray(manifest.assignments, dtype=np.int64)
        self.global_ids = [
            manifest.members(s) for s in range(manifest.num_shards)
        ]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        manifest_path: str | Path,
        database: GraphDatabase,
        distance,
        *,
        previous: "ShardedIndex | None" = None,
    ) -> "ShardedIndex":
        """Load a shard bundle written by :func:`~repro.shard.build_shards`.

        Raises :class:`~repro.shard.errors.ManifestError` /
        :class:`~repro.resilience.CorruptIndexError` /
        :class:`~repro.resilience.DatabaseMismatchError` — all
        ``PersistenceError`` subclasses, so the service reload path rolls
        back cleanly.  ``previous`` enables shard-object reuse (see module
        docstring)."""
        from repro.engine import DistanceEngine

        manifest_path = Path(manifest_path)
        manifest = ShardManifest.load(manifest_path)
        if len(database) != manifest.num_graphs or (
            database_checksum(database) != manifest.database_checksum
        ):
            raise DatabaseMismatchError(
                f"{manifest_path}: shard manifest does not match the "
                f"provided database"
            )
        engine = DistanceEngine(distance, graphs=database.graphs)
        base_dir = manifest_path.parent
        shards: list[NBIndex] = []
        reused = 0
        for entry in manifest.shards:
            members = manifest.members(entry.shard_id)
            if (
                previous is not None
                and previous.manifest.frame == manifest.frame
                and entry.shard_id < previous.manifest.num_shards
                and previous.manifest.shards[entry.shard_id].checksum
                == entry.checksum
                and np.array_equal(
                    previous.manifest.members(entry.shard_id), members
                )
            ):
                shards.append(previous.shards[entry.shard_id])
                reused += 1
                continue
            payload = manifest.read_artifact(entry.shard_id, base_dir)
            sub = database.subset([int(i) for i in members])
            shards.append(load_index(
                manifest.artifact_path(entry.shard_id, base_dir), sub,
                distance, payload,
            ))
        if reused == manifest.num_shards:
            frame = previous.frame  # nothing changed
        else:
            frame = manifest.assemble_frame(
                [(s.embedding.vantage_indices, s.embedding.coords) for s in shards]
            )
        obs.counter("shard.loads")
        if reused:
            obs.counter("shard.reused", reused)
        return cls(
            database, distance, shards=shards, manifest=manifest, frame=frame,
            engine=engine, path=manifest_path, reused_shards=reused,
        )

    @classmethod
    def build(
        cls,
        database: GraphDatabase,
        distance,
        *,
        num_shards: int,
        out_dir: str | Path,
        **build_kwargs,
    ) -> "ShardedIndex":
        """Build a bundle under ``out_dir`` and load it back."""
        from repro.shard.build import build_shards

        manifest_path = build_shards(
            database, distance, num_shards=num_shards, out_dir=out_dir,
            **build_kwargs,
        )
        return cls.load(manifest_path, database, distance)

    # ------------------------------------------------------------------
    # Queries (single-index API surface)
    # ------------------------------------------------------------------
    def session(self, query_fn) -> ShardedQuerySession:
        return ShardedQuerySession(self, query_fn)

    def query(self, query_fn, theta: float, k: int, **kwargs) -> QueryResult:
        check_query_kwargs(self, kwargs)
        return self.session(query_fn).query(theta, k, **kwargs)

    # -- QuerySession hooks ---------------------------------------------
    _query_layer = "shard"

    def _distance_calls(self) -> int:
        return self.engine.calls + sum(s.engine.calls for s in self.shards)

    def _shard_frontiers(self, run: QueryRun, global_engine) -> list[ShardFrontier]:
        """One frontier per shard; each tree's θ-independent state is
        built once per session and reused across (θ, k) refinements."""
        session = run.session
        return [
            ShardFrontier(
                session.cached(s, lambda s=s: TreeState(
                    self.shards[s], self.global_ids[s], session.relevant,
                    session.universe,
                )),
                run.theta, run.ladder_index, run.stats, run.runtime,
                global_engine=global_engine, frame=self.frame,
            )
            for s in range(self.num_shards)
        ]

    def _run_query(self, run: QueryRun):
        run.span.set(shards=self.num_shards)
        frontiers = self._shard_frontiers(run, self.engine)
        return run.greedy(
            frontiers, lambda gid: frontiers[int(self.shard_of[gid])]
        )

    def set_ladder(self, ladder: ThresholdLadder) -> None:
        """Swap the coordinator's (global) ladder; each shard re-ladders
        too so π̂ columns keep being read at the shared rungs."""
        self.ladder = ladder
        for shard in self.shards:
            shard.set_ladder(ladder)

    # ------------------------------------------------------------------
    # Mutations (Index protocol: read-only here)
    # ------------------------------------------------------------------
    #: A loaded bundle is a read-only view of its manifest generation —
    #: open with ``repro.open_index(path, mutable=True)`` to mutate.
    mutable = False

    def insert(self, graph, feature_row) -> int:
        raise ReadOnlyIndexError("insert", "ShardedIndex")

    def delete(self, gid: int) -> bool:
        raise ReadOnlyIndexError("delete", "ShardedIndex")

    def update(self, gid: int, graph, feature_row) -> int:
        raise ReadOnlyIndexError("update", "ShardedIndex")

    def compact(self) -> dict:
        raise ReadOnlyIndexError("compact", "ShardedIndex")

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.manifest.num_shards

    @property
    def tree_nodes(self) -> int:
        """Total NB-Tree nodes across shards (single-index parity)."""
        return sum(shard.tree.num_nodes for shard in self.shards)

    def stats(self) -> dict:
        """Statable protocol: bundle roll-up plus per-shard breakdown.

        The scalar core uses the same key schema as
        :meth:`NBIndex.stats` (``num_graphs`` / ``num_shards`` /
        ``tree_nodes`` / ``ladder_thresholds`` / ``distance_calls`` /
        ``memory_bytes`` / ``coverage_bytes`` / ``build_seconds`` /
        ``degraded``), so dashboards read one shape regardless of the
        deployment; per-shard detail nests under ``shards`` with the
        same per-quantity names."""
        out = {
            "num_graphs": self.manifest.num_graphs,
            "num_shards": self.num_shards,
            "partitioner": self.manifest.partitioner,
            "tree_nodes": self.tree_nodes,
            "ladder_thresholds": len(self.ladder),
            "reused_shards": self.reused_shards,
            "memory_bytes": sum(s._memory_bytes() for s in self.shards),
            "coverage_bytes": sum(s._coverage_bytes() for s in self.shards),
            "build_seconds": float(
                self.manifest.build.get(
                    "total_seconds",
                    sum(s.build_seconds for s in self.shards),
                )
            ),
            "distance_calls": self._distance_calls(),
            "shards": [
                {
                    "shard_id": i,
                    "num_graphs": len(shard.database),
                    "tree_nodes": shard.tree.num_nodes,
                    "distance_calls": shard.engine.calls,
                    "memory_bytes": shard._memory_bytes(),
                    "coverage_bytes": shard._coverage_bytes(),
                }
                for i, shard in enumerate(self.shards)
            ],
        }
        if hasattr(self.engine, "stats"):
            out["engine"] = dict(self.engine.stats())
        return out

    def close(self) -> None:
        """Nothing to release: a loaded bundle owns no processes or files."""

    # benchmarks/e2e/workloads.py:443,850 still call this name and that
    # directory is frozen; delete with the next ``benchmark`` PR.
    invalidate_pools = close

    def __repr__(self) -> str:
        return (
            f"<ShardedIndex n={self.manifest.num_graphs} "
            f"shards={self.num_shards} "
            f"partitioner={self.manifest.partitioner!r}>"
        )
