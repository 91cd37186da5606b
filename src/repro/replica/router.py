"""Failover routing: which replica answers, and what happens when it dies.

The :class:`ReplicaRouter` is the only code that talks to worker handles
on behalf of a query.  It implements two policies on top of the
supervisor's live view:

* **Routed reads with failover** (:meth:`call`) — the op goes to the
  shard's primary (first live replica); on a transport failure the
  worker is reported dead and the op retries on the next live sibling.
  Duplicated or re-ordered pulls are *safe by construction*: every
  frontier bound is a valid upper bound at any staleness, and exact
  gains are computed against the coordinator-supplied covered set, so a
  behind replica can cost extra pulls but never change the selected
  answer (the submodularity argument of ``shard/coordinator.py``).
* **Broadcast writes** (:meth:`broadcast`) — state-advancing ops
  (``begin_round`` / ``open_round`` / ``select``) go to
  *every* live replica so each one can take over as primary mid-round.
  One success suffices; replicas that miss a broadcast are repaired by
  session restore on their next contact.

Session state is restored lazily: before any op on a replica process
that has not seen this session (fresh restart, or LRU eviction signalled
by the typed ``unknown_session`` error), the router replays the session
log — open, selections, current round — from
:class:`~repro.replica.remote.SessionLog`.  Restored bounds are coarser
but still upper bounds; answers are unchanged.

When every replica of a shard is gone, :class:`ShardUnavailableError`
fails the query.
"""

from __future__ import annotations

from repro import obs
from repro.replica.errors import (
    ReplicaUnreachable,
    ReplicaWorkerError,
    ShardUnavailableError,
)
from repro.replica.supervisor import Supervisor, WorkerHandle


class ReplicaRouter:
    """Op-level routing over a :class:`Supervisor`'s worker fleet."""

    def __init__(
        self,
        supervisor: Supervisor,
        *,
        op_timeout_s: float = 10.0,
    ):
        self.supervisor = supervisor
        self.op_timeout_s = float(op_timeout_s)
        #: Hard cap on failover hops for one op — bounds worst-case
        #: latency even if the monitor keeps reviving doomed workers.
        self.max_failovers = 2 * supervisor.replicas + 2

    # ------------------------------------------------------------------
    # Public op surface
    # ------------------------------------------------------------------
    def call(self, shard_id: int, payload: dict, session=None) -> dict:
        """Route one read op with failover."""
        causes: list[str] = []
        for _ in range(self.max_failovers):
            live = self.supervisor.live(shard_id)
            if not live:
                raise ShardUnavailableError(shard_id, causes)
            handle = live[0]
            try:
                return self._call_handle(handle, payload, session)
            except ReplicaUnreachable as error:
                causes.append(str(error))
                self.supervisor.report_failure(handle)
                obs.counter("replica.failovers")
        raise ShardUnavailableError(shard_id, causes)

    def broadcast(self, shard_id: int, payload: dict, session=None) -> dict:
        """Send a state-advancing op to every live replica of a shard.

        Returns the first successful result; raises
        :class:`ShardUnavailableError` when no replica accepted it.
        """
        causes: list[str] = []
        first_result: dict | None = None
        for handle in self.supervisor.live(shard_id):
            try:
                result = self._call_handle(handle, payload, session)
            except ReplicaUnreachable as error:
                causes.append(str(error))
                self.supervisor.report_failure(handle)
                obs.counter("replica.failovers")
                continue
            if first_result is None:
                first_result = result
        if first_result is None:
            raise ShardUnavailableError(shard_id, causes)
        return first_result

    def close_session(self, shard_id: int, session) -> None:
        """Best-effort session teardown on every live replica."""
        payload = {"op": "close", "sid": session.sid}
        for handle in self.supervisor.live(shard_id):
            if session.sid not in handle.sessions:
                continue
            try:
                handle.call(payload, self.op_timeout_s,
                            max_frame=self.supervisor.max_frame_bytes)
            except ReplicaUnreachable:
                pass  # it is dying anyway; the monitor will deal with it
            handle.sessions.discard(session.sid)

    # ------------------------------------------------------------------
    # One handle, one op
    # ------------------------------------------------------------------
    def _call_handle(self, handle: WorkerHandle, payload: dict,
                     session) -> dict:
        if session is not None:
            self._ensure_session(handle, session)
        response = handle.call(payload, self.op_timeout_s,
                               max_frame=self.supervisor.max_frame_bytes)
        if not response.get("ok"):
            code = (response.get("error") or {}).get("code")
            if code == "unknown_session" and session is not None:
                # Evicted (LRU) rather than restarted: replay and retry.
                handle.sessions.discard(session.sid)
                self._ensure_session(handle, session)
                response = handle.call(
                    payload, self.op_timeout_s,
                    max_frame=self.supervisor.max_frame_bytes,
                )
        return self._unwrap(response, session)

    def _unwrap(self, response: dict, session) -> dict:
        if response.get("ok"):
            if session is not None and "deg" in response:
                session.note_degradations(response["deg"])
            result = response.get("r")
            if not isinstance(result, dict):
                obs.counter("replica.protocol_errors")
                raise ReplicaUnreachable("response carries no result object")
            return result
        error = response.get("error")
        if not isinstance(error, dict):
            obs.counter("replica.protocol_errors")
            raise ReplicaUnreachable("response carries no error object")
        raise ReplicaWorkerError(
            str(error.get("code", "internal")),
            str(error.get("message", "")),
        )

    def _ensure_session(self, handle: WorkerHandle, session) -> None:
        """Make sure this replica process holds the session (replay log)."""
        if session.sid in handle.sessions:
            return
        if session.mid_query:
            obs.counter("replica.session_restores")
        for step in session.replay_payloads():
            response = handle.call(
                step, self.op_timeout_s,
                max_frame=self.supervisor.max_frame_bytes,
            )
            result = self._unwrap(response, session)
            if step.get("op") == "open":
                session.note_open_result(result)
        handle.sessions.add(session.sid)
