"""`ShardedIndex`: a shard bundle served as one NB-Index.

A bundle's S artifacts are storage: each holds its members' rows of the
bundle's one vantage frame.  Loading reads them into that frame
(:meth:`ShardManifest.load_frame
<repro.shard.manifest.ShardManifest.load_frame>`) and builds one
:class:`~repro.index.NBIndex` over the whole database around it — the
frame *is* the index's embedding, no distance — so a query is the plain
single-index path, the same bits for any S and partitioner with the work
of one index.  S stays the on-disk layout (build, compaction, heal,
backup), and each replica worker serves this same one index over the
frame its cluster read; a hot reload (:meth:`ShardedIndex.load`'s
``previous``) reads only the artifacts whose checksum or members
changed.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.results import QueryResult
from repro.engine import DistanceEngine
from repro.graphs.database import GraphDatabase
from repro.index.errors import ReadOnlyIndexError
from repro.index.nbindex import NBIndex, QueryRun, check_query_kwargs
from repro.index.vantage import VantageEmbedding
from repro.resilience.errors import DatabaseMismatchError
from repro.shard.coordinator import ShardedQuerySession
from repro.shard.manifest import ShardManifest, database_checksum


class ShardedIndex:
    """One NB-Index over a bundle's frame, plus its manifest — a
    read-only view of its manifest generation."""

    def __init__(
        self,
        database: GraphDatabase,
        distance,
        *,
        manifest: ShardManifest,
        frame: VantageEmbedding,
        path: Path | None = None,
        reused_shards: int = 0,
    ):
        self.database = database
        self.distance = distance
        self.manifest = manifest
        self.path = path
        self.reused_shards = reused_shards
        self.index = NBIndex(
            database, DistanceEngine(distance, graphs=database.graphs),
            embedding=frame,
        )
        #: The index's embedding: the bundle's one vantage frame.
        self.frame = frame
        self.engine = self.index.engine

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
        back cleanly.  ``previous`` enables shard reuse (see module
        docstring)."""
        manifest_path = Path(manifest_path)
        manifest = ShardManifest.load(manifest_path)
        if len(database) != manifest.num_graphs or (
            database_checksum(database) != manifest.database_checksum
        ):
            raise DatabaseMismatchError(
                f"{manifest_path}: shard manifest does not match the "
                f"provided database"
            )
        reused = len(manifest.reusable(previous.manifest)) if previous else 0
        frame = previous.frame if reused == manifest.num_shards else (
            manifest.load_frame(manifest_path.parent, previous)
        )
        return cls(
            database, distance, manifest=manifest, frame=frame,
            path=manifest_path, reused_shards=reused,
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

    # -- QuerySession hooks: the index's own ----------------------------
    _query_layer = "shard"

    def _distance_calls(self) -> int:
        return self.index.engine.calls

    def _member_state(self, session):
        return self.index._member_state(session)

    def _run_query(self, run: QueryRun):
        return self.index._run_query(run)

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

    def stats(self) -> dict:
        """Statable protocol: :meth:`NBIndex.stats`'s key schema for the
        one index, plus the bundle's layout (``shards``: each artifact's
        member count)."""
        index = self.index
        return {
            "num_graphs": self.manifest.num_graphs,
            "num_shards": self.num_shards,
            "partitioner": self.manifest.partitioner,
            "reused_shards": self.reused_shards,
            "memory_bytes": index._memory_bytes(),
            "coverage_bytes": index._coverage_bytes(),
            "build_seconds": float(
                self.manifest.build.get("total_seconds", 0.0)
            ),
            "distance_calls": self._distance_calls(),
            "shards": [
                {"shard_id": entry.shard_id, "num_graphs": entry.num_graphs}
                for entry in self.manifest.shards
            ],
            "engine": dict(index.engine.stats()),
        }

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
