"""Replicated multi-process shard serving.

``repro.replica`` turns a shard bundle into a supervised process
cluster: R :class:`~repro.replica.worker.ShardWorker` replicas per shard
(line-JSON over socketpairs), a :class:`~repro.replica.supervisor.Supervisor`
that heartbeats, wedge-kills, and restarts them with capped backoff, and
a :class:`~repro.replica.router.ReplicaRouter` that pins each query's
session on a shard to one live replica.  The public entry point is
:class:`ReplicatedIndex`, a drop-in for :class:`~repro.shard.ShardedIndex`.
A query whose pinned replica fails re-runs from scratch on the surviving
replicas, so it answers bit-identically under replica churn as long as
one replica per shard lives, and fails with
:class:`ShardUnavailableError` when a whole group is down.
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
