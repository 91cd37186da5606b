"""`ReplicatedIndex`: a supervised multi-process cluster behind the
single-index API.

The replicated deployment runs R worker *processes* (replicas), each
serving the whole manifest bundle as one index, supervised and restarted
on failure.  A query attempt pins one replica and drives the one query
path's greedy over one :class:`~repro.replica.remote.RemoteFrontier` —
the S = 1 loop, whatever the bundle's S: the answer does not depend on
how the database is split, so neither does the work.

A retry is the failover protocol.  The answer is a deterministic function
of a read-only bundle (greedy over exact θ-neighbourhoods, smallest-id
tie-breaks), so when the pinned replica dies, wedges, answers garbage or
has lost the session, the query re-runs from scratch under a fresh
session id and returns the same bits.  A retry prefers replicas that have
not failed this query; the number of attempts is bounded by R + 1.

When no replica is live the attempt waits for the monitor's restart (at
most ``op_timeout_s``, never past the query's deadline); when none comes,
or the attempts run out, the query fails with
:class:`~repro.replica.errors.ShardUnavailableError`.  A deterministic
worker-side op failure (:class:`~repro.replica.errors.ReplicaWorkerError`)
fails it without a retry.

The relevance function must be wire-expressible: replicated serving
accepts :class:`~repro.graphs.relevance.AverageScoreThreshold`-shaped
functions (anything with ``dims`` and ``threshold`` attributes), which is
what :func:`~repro.graphs.relevance.quartile_relevance` — and hence the
query service — produces.  Each worker rebuilds the function from
``(dims, threshold)`` and derives the identical relevant set.
"""

from __future__ import annotations

import uuid
from pathlib import Path

from repro import obs
from repro.core.results import QueryResult
from repro.graphs.database import GraphDatabase
from repro.index.errors import ReadOnlyIndexError
from repro.index.nbindex import QueryRun, QuerySession, check_query_kwargs
from repro.replica.errors import SessionLost, ShardUnavailableError
from repro.replica.remote import RemoteFrontier
from repro.replica.router import ReplicaRouter
from repro.replica.supervisor import Supervisor
from repro.resilience.errors import DatabaseMismatchError
from repro.shard.manifest import ShardManifest, database_checksum


class ReplicatedIndex:
    """R supervised worker processes over one bundle, queryable as one
    index."""

    def __init__(
        self,
        database: GraphDatabase,
        distance,
        *,
        manifest: ShardManifest,
        path: Path,
        supervisor: Supervisor,
        router: ReplicaRouter,
    ):
        self.database = database
        self.distance = distance
        self.manifest = manifest
        self.path = path
        self.supervisor = supervisor
        #: The bundle's vantage frame, the one the workers inherited.
        self.frame = supervisor.frame
        self.router = router
        #: Single-index/service stats parity (nothing is hot-reloaded
        #: into a live process cluster).
        self.reused_shards = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        manifest_path: str | Path,
        database: GraphDatabase,
        distance,
        *,
        replicas: int = 2,
        op_timeout_s: float = 10.0,
        heartbeat_s: float = 0.5,
        wedge_timeout_s: float = 5.0,
        spawn_timeout_s: float = 60.0,
    ) -> "ReplicatedIndex":
        """Spawn and handshake the R-worker fleet over the bundle at
        ``manifest_path`` (its ``manifest.json`` or the directory).

        Raises the same :class:`~repro.resilience.DatabaseMismatchError`
        as :meth:`ShardedIndex.load <repro.shard.ShardedIndex.load>` when
        the manifest does not describe ``database``; raises
        :class:`~repro.replica.errors.ReplicaError` when any worker fails
        its startup handshake (a cluster that cannot start complete does
        not start at all)."""
        manifest_path = Path(manifest_path)
        if manifest_path.is_dir():  # the bundle directory, as open_index takes
            manifest_path = manifest_path / "manifest.json"
        manifest = ShardManifest.load(manifest_path)
        if len(database) != manifest.num_graphs or (
            database_checksum(database) != manifest.database_checksum
        ):
            raise DatabaseMismatchError(
                f"{manifest_path}: shard manifest does not match the "
                f"provided database"
            )
        supervisor = Supervisor(
            database,
            distance,
            manifest,
            # Read and crc-checked once here; the workers inherit it by
            # fork.
            frame=manifest.load_frame(manifest_path.parent),
            replicas=replicas,
            heartbeat_s=heartbeat_s,
            wedge_timeout_s=wedge_timeout_s,
            spawn_timeout_s=spawn_timeout_s,
        )
        supervisor.start()
        router = ReplicaRouter(supervisor, op_timeout_s=op_timeout_s)
        return cls(
            database, distance, manifest=manifest, path=manifest_path,
            supervisor=supervisor, router=router,
        )

    # ------------------------------------------------------------------
    # Queries (single-index API surface)
    # ------------------------------------------------------------------
    def session(self, query_fn) -> QuerySession:
        if (
            getattr(query_fn, "dims", None) is None
            or getattr(query_fn, "threshold", None) is None
        ):
            raise TypeError(
                "replicated serving needs a wire-expressible relevance "
                "function exposing `dims` and `threshold` (e.g. "
                "AverageScoreThreshold / quartile_relevance); got "
                f"{type(query_fn).__name__}"
            )
        return QuerySession(self, query_fn)

    def query(self, query_fn, theta: float, k: int, **kwargs) -> QueryResult:
        check_query_kwargs(self, kwargs)
        return self.session(query_fn).query(theta, k, **kwargs)

    # -- QuerySession hooks ---------------------------------------------
    _query_layer = "replica"

    def _distance_calls(self) -> int:
        return 0  # distances are evaluated (and counted) in the workers

    def _run_query(self, run: QueryRun):
        """Pin one replica, run the greedy over its :class:`RemoteFrontier`;
        on :class:`SessionLost`, run it again on a fresh pin.  Workers run
        the filter and the deadline: each open frame ships the deadline's
        state, and a worker's ``deadline_expired`` comes back as
        :class:`~repro.resilience.BudgetExceeded` with no re-run (the
        sibling would expire too)."""
        run.span.set(shards=self.num_shards, replicas=self.replicas)
        failed: set = set()
        causes: list[str] = []
        for _ in range(self.replicas + 1):
            sid = uuid.uuid4().hex[:16]
            try:
                handle = self.router.pin(sid, failed)
            except ShardUnavailableError:
                raise ShardUnavailableError(causes) from None
            try:
                frontier = self._frontier(run, handle, sid)
                result = run.greedy([frontier], lambda gid: frontier)
            except SessionLost as lost:
                failed.add(lost.handle)
                causes.append(str(lost))
                obs.counter("replica.failovers")
                continue
            finally:
                self.router.close_session(handle, sid)
            return result
        raise ShardUnavailableError(causes)

    def _frontier(self, run: QueryRun, handle, sid: str):
        session = run.session
        return RemoteFrontier(
            self.router, handle, sid,
            dims=session.query_fn.dims,
            threshold=session.query_fn.threshold,
            theta=run.theta,
            relevant_global=session.relevant,
            universe=session.universe,
            deadline_state=(
                run.deadline.state() if run.deadline is not None else None
            ),
        )

    # ------------------------------------------------------------------
    # Mutations (Index protocol: read-only here)
    # ------------------------------------------------------------------
    #: Worker processes serve an immutable bundle; mutate through a
    #: single-process ``repro.open_index(path, mutable=True)`` deployment.
    mutable = False

    def insert(self, graph, feature_row) -> int:
        raise ReadOnlyIndexError("insert", "ReplicatedIndex")

    def delete(self, gid: int) -> bool:
        raise ReadOnlyIndexError("delete", "ReplicatedIndex")

    def update(self, gid: int, graph, feature_row) -> int:
        raise ReadOnlyIndexError("update", "ReplicatedIndex")

    def compact(self) -> dict:
        raise ReadOnlyIndexError("compact", "ReplicatedIndex")

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.manifest.num_shards

    @property
    def replicas(self) -> int:
        return self.supervisor.replicas

    def stats(self) -> dict:
        """Statable protocol: same scalar core as :meth:`ShardedIndex.stats`
        plus a ``replica`` section with the supervisor's fleet view."""
        return {
            "num_graphs": len(self.database),
            "num_shards": self.num_shards,
            "partitioner": self.manifest.partitioner,
            "reused_shards": self.reused_shards,
            "replica": self.supervisor.stats(),
        }

    def close(self) -> None:
        """Tear down the whole worker fleet."""
        self.supervisor.stop()

    def __enter__(self) -> "ReplicatedIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<ReplicatedIndex n={len(self.database)} "
            f"shards={self.num_shards} replicas={self.replicas}>"
        )
