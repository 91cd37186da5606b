"""The replica worker: one long-lived process serving the whole bundle.

A worker is forked by the :class:`~repro.replica.supervisor.Supervisor`
with the *database object*, the *manifest* and the bundle's *vantage
frame* already in memory (fork inheritance — no re-parse, pages shared by
the whole fleet; the frame was read and crc-checked once, by
:meth:`ReplicatedIndex.open <repro.replica.cluster.ReplicatedIndex.open>`).
It builds one :class:`~repro.shard.ShardedIndex` from them — the index
every in-process deployment of the bundle queries — and reads no shard
artifact.  It then answers the coordinator's frontier protocol over a
``socketpair``, one line-JSON frame per op (:mod:`repro.replica.wire`):

====================  =====================================================
op                    effect
====================  =====================================================
``hello``             identity (handshake; supervisor only)
``ping``              liveness probe (heartbeat)
``open``              create a query session: relevance spec → frontier
``begin_round``       refresh uncovered view; returns count + root bound
``open_round``        start the frontier's best-first round cursor
``next``              advance the lazy walk (piggybacks ``peek``)
``select``            retire a chosen graph from the frontier
``close``             drop a session
====================  =====================================================

A session's frontier holds every relevant graph, so the coordinator runs
the one-frontier loop and never asks for a foreign bound.

Sessions are keyed by a coordinator-chosen ``sid`` and bounded by an LRU
cap the router's pins stay within.  A session lives on the one replica
the router pinned it to; an op naming an evicted or never-seen ``sid``
(this process was restarted since the ``open``) gets the typed
``unknown_session`` error, on which the coordinator re-runs the whole
query under a fresh ``sid``.

Fault-plan hooks (:func:`repro.resilience.faults.maybe_kill_replica` /
``maybe_wedge_replica``) run at op entry, so chaos tests can kill or
wedge a worker deterministically *between* frames — the coordinator sees
a clean EOF or a timeout, never a torn frame of our making.

A worker never lets a per-op exception escape the loop: unexpected
failures become typed ``internal`` error responses and the process keeps
serving (the same fault-isolation stance as the service's worker
threads).
"""

from __future__ import annotations

import os
import socket
import traceback
from collections import OrderedDict

import numpy as np

from repro.bitset import BitsetUniverse
from repro.cascade import EpsilonError, FilterCascade
from repro.core.results import QueryStats
from repro.graphs.relevance import AverageScoreThreshold
from repro.index.frontier import MemberState
from repro.replica import wire
from repro.resilience import faults
from repro.resilience.deadline import Deadline, deadline_scope
from repro.shard.frontier import ShardFrontier
from repro.shard.sharded import ShardedIndex

_NEG_INF = float("-inf")

#: Concurrent query sessions one worker retains (LRU).  The router never
#: pins more than this many on one replica (a further query waits for a
#: slot), so eviction only reclaims a session whose ``close`` never came;
#: were a live one evicted, its query would re-run, not answer wrong.
SESSION_CAP = 8


def _bound_to_wire(value: float):
    """JSON-safe bound: ``-inf`` (empty frontier) travels as ``null``."""
    return None if value == _NEG_INF else float(value)


def _deficit_from_wire(request: dict) -> tuple[float, int | None]:
    """``(min_useful, tie_gid)`` of a ``next`` frame; absent or ``null``
    keys mean "no incumbent"."""
    mu, tie = request.get("mu"), request.get("tie")
    return (
        _NEG_INF if mu is None else float(mu),
        None if tie is None else int(tie),
    )


class _Session:
    """One (relevance, θ) query's frontier and deadline."""

    __slots__ = ("frontier", "round", "deadline", "stats")

    def __init__(self, frontier: ShardFrontier, deadline: Deadline | None):
        self.frontier = frontier
        self.round = None
        self.deadline = deadline
        self.stats = frontier.stats


class ShardWorker:
    """Op dispatcher bound to one replica of the whole bundle."""

    def __init__(
        self,
        database,
        distance,
        manifest,
        replica_index: int,
        *,
        frame,
        session_cap: int = SESSION_CAP,
    ):
        self.replica_index = int(replica_index)
        #: The bundle as one index over its frame; ``index.engine`` is the
        #: worker's one engine (identity ids).
        self.index = ShardedIndex(
            database, distance, manifest=manifest, frame=frame
        )
        #: No graph lives elsewhere, so there is no second engine
        #: (``benchmarks/e2e/trace.py`` still reads the name).
        self.global_engine = None
        self.sessions: OrderedDict[str, _Session] = OrderedDict()
        self.session_cap = int(session_cap)
        self.ops_served = 0

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """One frame in → one response out; never raises."""
        self.ops_served += 1
        op = request.get("op")
        if op != "hello":
            # The handshake is exempt so a standing kill plan cannot turn
            # every restart into an immediate re-death (livelock).
            faults.maybe_kill_replica(self.replica_index, self.ops_served)
            faults.maybe_wedge_replica(self.replica_index)
        handler = self._HANDLERS.get(op)
        if handler is None:
            return _error("invalid_request", f"unknown op {op!r}")
        try:
            session = None
            if op not in ("hello", "ping", "open"):
                session = self._session(request)
            with deadline_scope(session.deadline if session else None):
                result = handler(self, request, session)
            response = {"ok": True, "r": result}
            if session is not None and session.deadline is not None and (
                session.deadline.degradations
            ):
                response["deg"] = dict(session.deadline.degradations)
            return response
        except _UnknownSession as error:
            return _error("unknown_session", str(error))
        except wire.ReplicaProtocolError as error:
            return _error("invalid_request", str(error))
        except Exception as error:  # fault isolation: the op dies, not us
            return _error(
                "internal",
                f"{type(error).__name__}: {error}\n"
                + traceback.format_exc(limit=4),
            )

    def _session(self, request: dict) -> "_Session":
        sid = request.get("sid")
        session = self.sessions.get(sid)
        if session is None:
            raise _UnknownSession(
                f"session {sid!r} unknown to replica "
                f"{self.replica_index} (evicted or restarted); re-run the "
                f"query"
            )
        self.sessions.move_to_end(sid)
        return session

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _op_hello(self, request: dict, _session) -> dict:
        return {"replica": self.replica_index, "pid": os.getpid()}

    def _op_ping(self, request: dict, _session) -> dict:
        return {"pong": True}

    def _op_open(self, request: dict, _session) -> dict:
        sid = request.get("sid")
        if not isinstance(sid, str) or not sid:
            raise wire.ReplicaProtocolError("open needs a string 'sid'")
        dims = request.get("dims")
        if not isinstance(dims, list) or not dims:
            raise wire.ReplicaProtocolError("open needs a 'dims' list")
        theta = float(request["theta"])
        #: The coordinator ships the *resolved* relevance spec — exact
        #: dims + threshold float — so every process derives the identical
        #: relevant set (no re-quantiling, no float drift).
        query_fn = AverageScoreThreshold(
            tuple(int(d) for d in dims), float(request["threshold"])
        )
        index = self.index.index
        relevant = index.database.relevant_indices(query_fn)
        deadline_state = request.get("deadline")
        deadline = (
            Deadline.from_state(deadline_state)
            if deadline_state is not None else None
        )
        try:
            runtime = FilterCascade(request.get("epsilon"))
        except EpsilonError as error:
            raise wire.ReplicaProtocolError(str(error)) from error
        frontier = ShardFrontier(
            MemberState(
                index, np.arange(len(index.embedding)), relevant,
                BitsetUniverse(relevant),
            ),
            theta, QueryStats(), runtime,
            global_engine=index.engine, frame=self.index.frame,
        )
        self.sessions[sid] = _Session(frontier, deadline)
        self.sessions.move_to_end(sid)
        while len(self.sessions) > self.session_cap:
            self.sessions.popitem(last=False)
        return {
            "relevant": int(frontier.relevant_global.size),
            "min_gid": int(frontier.min_gid_bound()),
        }

    def _covered(self, request: dict, session: "_Session") -> np.ndarray:
        universe = session.frontier.universe
        return wire.words_from_wire(request.get("cov"), universe.num_words)

    def _op_begin_round(self, request: dict, session: "_Session") -> dict:
        frontier = session.frontier
        frontier.begin_round(self._covered(request, session))
        return {
            "unc": int(frontier.uncovered_count),
            "root": _bound_to_wire(frontier.root_bound()),
        }

    def _op_open_round(self, request: dict, session: "_Session") -> dict:
        session.round = session.frontier.open_round(
            self._covered(request, session)
        )
        return {"peek": _bound_to_wire(session.round.peek())}

    def _op_next(self, request: dict, session: "_Session") -> dict:
        if session.round is None:
            raise wire.ReplicaProtocolError("next before open_round")
        candidate = session.round.next(*_deficit_from_wire(request))
        if candidate is None:
            cand = None
        else:
            gid, gain, nbhd = candidate
            cand = {
                "gid": int(gid),
                "gain": float(gain),
                "nbhd": wire.words_to_wire(nbhd),
            }
        return {"cand": cand, "peek": _bound_to_wire(session.round.peek())}

    def _op_select(self, request: dict, session: "_Session") -> dict:
        session.frontier.select(int(request["gid"]))
        return {}

    def _op_close(self, request: dict, session: "_Session") -> dict:
        self.sessions.pop(request.get("sid"), None)
        return {}

    _HANDLERS = {
        "hello": _op_hello,
        "ping": _op_ping,
        "open": _op_open,
        "begin_round": _op_begin_round,
        "open_round": _op_open_round,
        "next": _op_next,
        "select": _op_select,
        "close": _op_close,
    }


class _UnknownSession(KeyError):
    """Internal: op named a sid this replica does not hold."""

    def __str__(self) -> str:  # KeyError quotes its args; keep the text
        return self.args[0] if self.args else "unknown session"


def _error(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


# ---------------------------------------------------------------------------
# Process entry
# ---------------------------------------------------------------------------
def worker_main(
    conn: socket.socket,
    database,
    distance,
    manifest,
    replica_index: int,
    frame,
    max_frame: int = wire.MAX_FRAME_BYTES,
) -> None:
    """Forked-process entry: serve frames on ``conn`` until EOF.

    The index is built before the first response, so the supervisor's
    ``hello`` handshake doubles as a readiness gate.
    """
    worker = ShardWorker(
        database, distance, manifest, replica_index, frame=frame
    )
    reader = conn.makefile("rb")
    try:
        while True:
            try:
                request = wire.read_frame(reader, max_bytes=max_frame)
            except wire.ReplicaProtocolError as error:
                # A corrupt inbound frame gets a typed reply; the stream
                # is still line-synchronized (readline consumed the line).
                try:
                    conn.sendall(wire.encode_frame(
                        _error("invalid_request", str(error))
                    ))
                    continue
                except OSError:
                    return
            except wire.ReplicaDead:
                return
            if request is None:
                return  # coordinator closed the pair: clean shutdown
            response = worker.handle(request)
            try:
                conn.sendall(wire.encode_frame(response))
            except OSError:
                return  # coordinator went away mid-write
    finally:
        reader.close()
        conn.close()
