"""Replica routing: which replica serves a session, and what a failure
reports.

The :class:`ReplicaRouter` is the only code that talks to worker handles
on behalf of a query.  Per attempt of a query, :meth:`pin` binds the
session to one live replica — the one with the fewest open sessions,
ties going to the lowest replica index — and every op of that session
goes to that replica alone (:meth:`call`).  Concurrent queries therefore
spread over the replicas.  A replica never holds more pinned sessions
than its worker keeps (:data:`~repro.replica.worker.SESSION_CAP`); past
R·cap concurrent queries, the next one waits for a slot rather than
evict a live session.  With no replica live at all — a restart window —
it waits for the monitor's restart, at most ``op_timeout_s`` and never
past the query's deadline, and then fails with
:class:`~repro.replica.errors.ShardUnavailableError`.

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
import time

from repro import obs
from repro.replica.errors import (
    ReplicaUnreachable,
    ReplicaWorkerError,
    SessionLost,
    ShardUnavailableError,
)
from repro.replica.supervisor import Supervisor, WorkerHandle
from repro.replica.worker import SESSION_CAP
from repro.resilience.deadline import current_deadline

#: How often a query waiting for a session slot or a restart re-reads the
#: fleet (a restart frees a replica's slots without a close to signal it).
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

    def pin(self, sid: str, avoid=()) -> WorkerHandle:
        """One live replica to serve session ``sid``.  A replica in
        ``avoid`` (it failed this query already) is taken only when no
        other has room.

        A replica holding :data:`SESSION_CAP` sessions is full: its
        worker would evict one of them for a new ``open``, so the pin
        waits for a slot.  With no replica live it waits for a restart,
        for ``op_timeout_s`` at most and never past the ambient deadline
        (the query's), then raises :class:`ShardUnavailableError`."""
        deadline = current_deadline()
        remaining = None if deadline is None else deadline.remaining()
        patience = self.op_timeout_s if remaining is None else min(
            self.op_timeout_s, remaining
        )
        down_since = None
        with self._slots:
            while True:
                live = self.supervisor.live()
                room = [h for h in live if len(h.sessions) < SESSION_CAP]
                if room:
                    handle = min(room, key=lambda h: (
                        h in avoid, len(h.sessions), h.replica_index,
                    ))
                    handle.sessions.add(sid)
                    return handle
                if live:
                    down_since = None
                else:
                    now = time.monotonic()
                    down_since = now if down_since is None else down_since
                    if now - down_since >= patience:
                        raise ShardUnavailableError()
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
