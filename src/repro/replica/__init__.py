"""Replicated multi-process serving of a shard bundle.

``repro.replica`` turns a shard bundle into a supervised process
cluster: R :class:`~repro.replica.worker.ShardWorker` replicas, each
serving the whole bundle as one index (line-JSON over socketpairs), a
:class:`~repro.replica.supervisor.Supervisor` that heartbeats,
wedge-kills, and restarts them with capped backoff, and a
:class:`~repro.replica.router.ReplicaRouter` that pins each query
attempt to one live replica.  The public entry point is
:class:`ReplicatedIndex`, a drop-in for :class:`~repro.shard.ShardedIndex`.
A query whose pinned replica fails re-runs from scratch on another (or,
with none live, on the restarted one), so it answers bit-identically
under replica churn, and fails with :class:`ShardUnavailableError` when
no replica comes back in time.
"""

from repro.replica.cluster import ReplicatedIndex
from repro.replica.errors import (
    ReplicaError,
    ReplicaWorkerError,
    ShardUnavailableError,
)
from repro.replica.router import ReplicaRouter
from repro.replica.supervisor import Supervisor
from repro.replica.worker import ShardWorker, worker_main

__all__ = [
    "ReplicatedIndex",
    "ReplicaError",
    "ReplicaRouter",
    "ReplicaWorkerError",
    "ShardUnavailableError",
    "ShardWorker",
    "Supervisor",
    "worker_main",
]
