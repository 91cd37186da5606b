"""Typed errors of the replicated process-cluster backend.

Two audiences, two families:

* **Internal transport failures** (:class:`ReplicaUnreachable` and its
  refinements) never leave :mod:`repro.replica` — the router catches
  them, reports the replica to the supervisor, and fails over to a
  sibling.  They exist as types so tests can assert *which* failure
  triggered a failover.
* :class:`ShardUnavailableError` is what a query raises when a **whole
  replica group** is down: every replica of one shard failed (or failed
  to restart in time).  The query fails; the service answers it with
  ``query_failed`` naming this type.  There is no answer over the
  surviving shards.
"""

from __future__ import annotations


class ReplicaError(Exception):
    """Base class for everything raised by :mod:`repro.replica`."""


class ShardUnavailableError(ReplicaError):
    """Every replica of one shard is down; its frontier cannot be served.

    ``shard_id`` names the dead group; ``causes`` holds the last
    per-replica transport failures (strings), for logs and tests.
    """

    def __init__(self, shard_id: int, causes: list[str] | None = None):
        self.shard_id = int(shard_id)
        self.causes = list(causes or [])
        detail = f": {'; '.join(self.causes)}" if self.causes else ""
        super().__init__(
            f"shard {shard_id}: no live replica remains{detail}"
        )


class ReplicaWorkerError(ReplicaError):
    """A worker answered with a typed ``internal``/``invalid_request``
    error: the *op itself* failed, deterministically, on a healthy
    process.  Failing over would just re-raise it on the sibling, so it
    propagates as a query failure (the service journals it and answers
    ``query_failed``) instead of burning replicas.
    """

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"replica op failed ({code}): {message}")


class ReplicaUnreachable(ReplicaError):
    """One replica failed to serve one op (crash, EOF, timeout, garbage).

    Internal: the router converts it into a failover, never propagates it.
    """


class ReplicaTimeout(ReplicaUnreachable):
    """The replica did not answer within the per-op deadline (wedged or
    overloaded).  The connection is poisoned — a late answer would
    desynchronize the request/response stream — so the worker is killed
    and restarted rather than reused."""


class ReplicaDead(ReplicaUnreachable):
    """The worker process exited (EOF / broken pipe mid-op)."""


class ReplicaProtocolError(ReplicaUnreachable):
    """The replica answered with a malformed or oversized frame.

    Counted once per occurrence (``replica.protocol_errors``) and treated
    exactly like a crash: the worker is restarted and the op fails over —
    a corrupt peer must not be able to wedge or crash the coordinator.
    """
