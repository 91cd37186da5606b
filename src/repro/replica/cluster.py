"""`ReplicatedIndex`: a supervised multi-process cluster behind the
single-index API.

The replicated deployment runs every shard of a manifest bundle as R
worker *processes* (R replicas per shard), supervised and restarted on
failure, and drives the PR-5 scatter-gather greedy over
:class:`~repro.replica.remote.RemoteFrontier` objects instead of
in-process :class:`~repro.shard.frontier.ShardFrontier` ones.  The
coordinator loop, the selection rule, and therefore the answer bits are
identical — a replica crash mid-query costs a failover and some
re-pulled candidates, never a different answer.

When *every* replica of a shard is down (and stays down past the
router's failover budget) the query fails with
:class:`~repro.replica.errors.ShardUnavailableError`; it never answers
over a subset of the shards.  A deterministic worker-side op failure
(:class:`~repro.replica.errors.ReplicaWorkerError`) fails it too.

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

import numpy as np

from repro.core.results import QueryResult
from repro.graphs.database import GraphDatabase
from repro.index.errors import ReadOnlyIndexError
from repro.index.nbindex import QueryRun, QuerySession, check_query_kwargs
from repro.index.pivec import ThresholdLadder
from repro.replica.remote import RemoteFrontier
from repro.replica.router import ReplicaRouter
from repro.replica.supervisor import Supervisor
from repro.resilience.errors import DatabaseMismatchError
from repro.shard.manifest import ShardManifest, database_checksum


class ReplicatedIndex:
    """R supervised worker processes per shard, queryable as one index."""

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
        self.ladder = ThresholdLadder(manifest.ladder)
        self.shard_of = np.asarray(manifest.assignments, dtype=np.int64)
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
        """Spawn and handshake the full S×R worker fleet.

        Raises the same :class:`~repro.resilience.DatabaseMismatchError`
        as :meth:`ShardedIndex.load <repro.shard.ShardedIndex.load>` when
        the manifest does not describe ``database``; raises
        :class:`~repro.replica.errors.ReplicaError` when any worker fails
        its startup handshake (a cluster that cannot start complete does
        not start at all)."""
        manifest_path = Path(manifest_path)
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
            manifest_path,
            manifest.num_shards,
            # Read once here; the workers inherit it by fork.
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
        """One :class:`RemoteFrontier` per shard.  Workers run the filter
        and the deadline; the coordinator ships ε and the deadline in each
        session-open frame (a worker knows its own metric) and folds the
        degradations they report back into the deadline."""
        session = run.session
        run.span.set(shards=self.num_shards, replicas=self.replicas)
        deadline_state = (
            run.deadline.state() if run.deadline is not None else None
        )
        # One session id covers the whole query — worker session tables
        # are per-process, so the same id on every shard is unambiguous.
        sid = uuid.uuid4().hex[:16]
        frontiers = [
            RemoteFrontier(
                self.router, s, sid,
                dims=session.query_fn.dims,
                threshold=session.query_fn.threshold,
                theta=run.theta,
                # Pure function of the manifest, identical to each
                # worker's own derivation.
                relevant_global=session.cached(s, lambda s=s: (
                    session.relevant[self.shard_of[session.relevant] == s]
                )),
                universe=session.universe,
                deadline_state=deadline_state,
                epsilon=run.runtime.epsilon,
            )
            for s in range(self.num_shards)
        ]
        try:
            return run.greedy(
                frontiers, lambda gid: frontiers[int(self.shard_of[gid])]
            )
        finally:
            for frontier in frontiers:
                if run.deadline is not None:
                    run.deadline.merge_degradations(
                        frontier.session.degradations
                    )
                frontier.close()

    # ------------------------------------------------------------------
    # Mutations (Index protocol: read-only here)
    # ------------------------------------------------------------------
    #: Worker processes hold immutable shard artifacts; mutate through a
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

    @property
    def tree_nodes(self) -> int:
        """Total NB-Tree nodes across shards (replica 0's handshake view —
        every replica of a shard reports the same artifact)."""
        return sum(
            group[0].tree_nodes or 0 for group in self.supervisor.groups
        )

    def stats(self) -> dict:
        """Statable protocol: same scalar core as :meth:`ShardedIndex.stats`
        plus a ``replica`` section with the supervisor's fleet view."""
        return {
            "num_graphs": len(self.database),
            "num_shards": self.num_shards,
            "partitioner": self.manifest.partitioner,
            "tree_nodes": self.tree_nodes,
            "ladder_thresholds": len(self.ladder),
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
