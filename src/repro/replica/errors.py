"""Typed errors of the replicated process-cluster backend.

Two audiences, two families:

* **Internal transport failures** (:class:`ReplicaUnreachable` and its
  refinements) never leave :mod:`repro.replica` — the router catches
  them, reports the replica to the supervisor, and raises
  :class:`SessionLost`, on which the cluster re-runs the query.  They
  exist as types so tests can assert *which* failure cost a retry.
* :class:`ShardUnavailableError` is what a query raises when **no worker**
  can serve it: every replica is down and none restarted within the
  wait, or the attempts ran out.  The query fails; the service answers
  it with ``query_failed`` naming this type.
"""

from __future__ import annotations


class ReplicaError(Exception):
    """Base class for everything raised by :mod:`repro.replica`."""


class ShardUnavailableError(ReplicaError):
    """No replica can serve the query: none is live (and none restarted
    within the wait), or every attempt lost its worker.

    The name is the wire's ``exception_type``.  ``causes`` holds the
    failures of the attempts made (strings), for logs and tests.
    """

    def __init__(self, causes: list[str] | None = None):
        self.causes = list(causes or [])
        detail = f": {'; '.join(self.causes)}" if self.causes else ""
        super().__init__(f"no live replica remains{detail}")


class ReplicaWorkerError(ReplicaError):
    """A worker answered with a typed ``internal``/``invalid_request``
    error: the *op itself* failed, deterministically, on a healthy
    process.  A retry would just re-raise it on the sibling, so it
    propagates as a query failure (the service journals it and answers
    ``query_failed``) instead of burning replicas.
    """

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"replica op failed ({code}): {message}")


class SessionLost(ReplicaError):
    """Internal: the replica a query's session is pinned to failed (a
    :class:`ReplicaUnreachable`) or no longer holds the session
    (``unknown_session``).  The cluster re-runs the query under a fresh
    session id and prefers replicas other than ``handle``."""

    def __init__(self, handle, cause: str):
        self.handle = handle
        super().__init__(f"replica {handle.replica_index}: {cause}")


class ReplicaUnreachable(ReplicaError):
    """One replica failed to serve one op (crash, EOF, timeout, garbage).

    Internal: the router reports the replica and raises
    :class:`SessionLost` in its place.
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
    exactly like a crash: the worker is restarted and the query re-runs —
    a corrupt peer must not be able to wedge or crash the coordinator.
    """
