"""Replica routing: which replica serves a session, and what a failure
reports.

The :class:`ReplicaRouter` is the only code that talks to worker handles
on behalf of a query.  Per attempt of a query, :meth:`pin` binds each
shard's session to one live replica — the one with the fewest open
sessions, ties going to the lowest replica index — and every op of that
session goes to that replica alone (:meth:`call`).  Concurrent queries
therefore spread over a shard's replicas.  A replica never holds more
pinned sessions than its worker keeps
(:data:`~repro.replica.worker.SESSION_CAP`); past S·R·cap concurrent
queries, the next one waits for a slot rather than evict a live session.

There is no failover inside a query.  A transport failure reports the
worker to the supervisor (which kills and restarts it); a worker that no
longer holds the session (restarted, or evicted it) answers
``unknown_session``, and is left alone.  Either way the router raises
:class:`~repro.replica.errors.SessionLost`, and the cluster re-runs the
whole query under a fresh session id
(:meth:`ReplicatedIndex._run_query
<repro.replica.cluster.ReplicatedIndex._run_query>`).
"""

from __future__ import annotations

import threading

from repro import obs
from repro.replica.errors import (
    ReplicaUnreachable,
    ReplicaWorkerError,
    SessionLost,
    ShardUnavailableError,
)
from repro.replica.supervisor import Supervisor, WorkerHandle
from repro.replica.worker import SESSION_CAP

#: How often a query waiting for a session slot re-reads the fleet (a
#: restart frees a replica's slots without a close to signal it).
_SLOT_POLL_S = 0.05


class ReplicaRouter:
    """Session pinning and op calls over a :class:`Supervisor`'s fleet."""

    def __init__(
        self,
        supervisor: Supervisor,
        *,
        op_timeout_s: float = 10.0,
    ):
        self.supervisor = supervisor
        self.op_timeout_s = float(op_timeout_s)
        #: Guards every replica's session count: choosing replicas and
        #: counting the session on them is one step, and a close wakes
        #: the queries waiting for a slot.
        self._slots = threading.Condition()

    def pin(self, sid: str, avoid=()) -> list[WorkerHandle]:
        """One live replica per shard, in shard order, to serve session
        ``sid``.  A replica in ``avoid`` (it failed this query already)
        is taken only when no other has room.

        A replica holding :data:`SESSION_CAP` sessions is full: its
        worker would evict one of them for a new ``open``.  The pin waits
        until every shard has a live replica with room and then takes all
        S at once, so a waiting query holds no slot another one needs.
        Raises :class:`ShardUnavailableError` when a shard has no live
        replica."""
        with self._slots:
            while True:
                chosen = []
                for shard_id in range(self.supervisor.num_shards):
                    live = self.supervisor.live(shard_id)
                    if not live:
                        raise ShardUnavailableError(shard_id)
                    room = [h for h in live if len(h.sessions) < SESSION_CAP]
                    if not room:
                        break
                    chosen.append(min(room, key=lambda h: (
                        h in avoid, len(h.sessions), h.replica_index,
                    )))
                else:
                    for handle in chosen:
                        handle.sessions.add(sid)
                    return chosen
                self._slots.wait(_SLOT_POLL_S)

    def call(self, handle: WorkerHandle, payload: dict) -> dict:
        """One op on the session's pinned replica: the ok frame (its ``r``
        is an object).  Raises :class:`SessionLost` when the query must
        re-run, :class:`ReplicaWorkerError` when the op itself failed."""
        try:
            response = handle.call(payload, self.op_timeout_s,
                                   max_frame=self.supervisor.max_frame_bytes)
            if response.get("ok"):
                if not isinstance(response.get("r"), dict):
                    obs.counter("replica.protocol_errors")
                    raise ReplicaUnreachable(
                        "response carries no result object"
                    )
                return response
            error = response.get("error")
            if not isinstance(error, dict):
                obs.counter("replica.protocol_errors")
                raise ReplicaUnreachable("response carries no error object")
        except ReplicaUnreachable as failure:
            self.supervisor.report_failure(handle)
            raise SessionLost(handle, str(failure)) from failure
        code = str(error.get("code", "internal"))
        if code == "unknown_session":
            # A healthy process that does not hold the session (restarted
            # since the pin, or evicted it): re-run, do not kill it.
            raise SessionLost(handle, str(error.get("message", "")))
        raise ReplicaWorkerError(code, str(error.get("message", "")))

    def broadcast(self, *args) -> None:
        # Trace-only: benchmarks/e2e/trace.py wraps this name, so it must
        # resolve; every op goes to one pinned replica through call().
        pass

    def close_session(self, handle: WorkerHandle, sid: str) -> None:
        """Best-effort session teardown on its replica; unpins it."""
        if sid in handle.sessions:
            try:
                handle.call({"op": "close", "sid": sid}, self.op_timeout_s,
                            max_frame=self.supervisor.max_frame_bytes)
            except ReplicaUnreachable:
                pass  # it is dying anyway; the monitor will deal with it
        # Freed only after the worker dropped it, so the count never
        # trails the worker's own table.
        with self._slots:
            handle.sessions.discard(sid)
            self._slots.notify_all()
