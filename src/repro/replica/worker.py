"""The shard worker: one long-lived process serving one shard's frontier.

A worker is forked by the :class:`~repro.replica.supervisor.Supervisor`
with the *database object* and the bundle's *vantage frame* already in
memory (fork inheritance — no re-parse, pages shared by the whole fleet)
and loads its own shard's NB-Index artifact on startup.  It
then answers the coordinator's frontier protocol over a ``socketpair``,
one line-JSON frame per op (:mod:`repro.replica.wire`):

====================  =====================================================
op                    effect
====================  =====================================================
``hello``             identity + shard shape (handshake; supervisor only)
``ping``              liveness probe (heartbeat)
``open``              create a query session: relevance spec → frontier
``begin_round``       refresh uncovered view; returns count + root bound
``open_round``        start the frontier's best-first round cursor
``next``              advance the lazy walk (piggybacks ``peek``)
``pi_hat``            open a foreign candidate's window: ``hits + unverified``
``nbhd``              verify it as far as ``mu``/``tie`` ask: bitset or bound
``select``            retire a chosen home graph from the frontier
``close``             drop a session
====================  =====================================================

Sessions are keyed by a coordinator-chosen ``sid`` and bounded by an LRU
cap; an op naming an evicted or never-seen ``sid`` gets the typed
``unknown_session`` error, which is the router's cue to *restore* the
session (re-open + replay selections) — the mechanism that lets a
freshly restarted replica rejoin a query mid-flight.  Restored state is
coarser (initial π̂ bounds instead of refined ones) but every bound is
still a valid upper bound, so answers are unchanged; only work counts
move.

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
from pathlib import Path

import numpy as np

from repro.bitset import BitsetUniverse
from repro.cascade import EpsilonError, FilterCascade
from repro.core.results import QueryStats
from repro.graphs.relevance import AverageScoreThreshold
from repro.index.frontier import TreeState
from repro.index.persistence import load_index
from repro.index.pivec import ThresholdLadder
from repro.replica import wire
from repro.resilience import faults
from repro.resilience.deadline import Deadline, deadline_scope
from repro.shard.frontier import ShardFrontier
from repro.shard.manifest import ShardManifest

_NEG_INF = float("-inf")

#: Concurrent query sessions one worker retains (LRU).  The coordinator
#: restores an evicted session transparently, so the cap only bounds
#: memory, never correctness.
SESSION_CAP = 8


def _bound_to_wire(value: float):
    """JSON-safe bound: ``-inf`` (empty frontier) travels as ``null``."""
    return None if value == _NEG_INF else float(value)


def _deficit_from_wire(request: dict) -> tuple[float, int | None]:
    """``(min_useful, tie_gid)`` of a ``next`` / ``nbhd`` frame; absent or
    ``null`` keys mean "no incumbent"."""
    mu, tie = request.get("mu"), request.get("tie")
    return (
        _NEG_INF if mu is None else float(mu),
        None if tie is None else int(tie),
    )


class _Session:
    """One (relevance, θ) query's shard-local state."""

    __slots__ = ("frontier", "round", "deadline", "stats")

    def __init__(self, frontier: ShardFrontier, deadline: Deadline | None):
        self.frontier = frontier
        self.round = None
        self.deadline = deadline
        self.stats = frontier.stats


class ShardWorker:
    """Op dispatcher bound to one loaded shard replica."""

    def __init__(
        self,
        database,
        distance,
        manifest_path: str | Path,
        shard_id: int,
        replica_index: int,
        *,
        frame,
        session_cap: int = SESSION_CAP,
    ):
        from repro.engine import DistanceEngine

        manifest_path = Path(manifest_path)
        manifest = ShardManifest.load(manifest_path)
        self.shard_id = int(shard_id)
        self.replica_index = int(replica_index)
        self.members = manifest.members(self.shard_id)
        self.database = database
        sub = database.subset([int(i) for i in self.members])
        self.index = load_index(
            manifest.artifact_path(self.shard_id, manifest_path.parent),
            sub, distance,
        )
        #: The bundle's :class:`~repro.index.vantage.VantageFrame`: every
        #: graph's coordinates, wherever it lives.
        self.frame = frame
        self.ladder = ThresholdLadder(manifest.ladder)
        #: Cross-shard distances go through a *global-id* engine over the
        #: full database — the same id discipline as the in-process
        #: coordinator (mixing id spaces would alias pair-cache keys).
        self.global_engine = DistanceEngine(distance, graphs=database.graphs)
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
                f"{self.shard_id}/{self.replica_index} (evicted or "
                f"restarted); restore it"
            )
        self.sessions.move_to_end(sid)
        return session

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _op_hello(self, request: dict, _session) -> dict:
        return {
            "shard": self.shard_id,
            "replica": self.replica_index,
            "pid": os.getpid(),
            "num_graphs": int(len(self.index.database)),
            "tree_nodes": int(self.index.tree.num_nodes),
        }

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
        relevant = self.database.relevant_indices(query_fn)
        ladder_index = self.ladder.index_for(theta)
        if ladder_index is None:
            raise wire.ReplicaProtocolError(
                f"theta {theta:g} is off this bundle's ladder"
            )
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
            TreeState(
                self.index, self.members, relevant, BitsetUniverse(relevant)
            ),
            theta, ladder_index, QueryStats(), runtime,
            global_engine=self.global_engine, frame=self.frame,
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

    def _op_pi_hat(self, request: dict, session: "_Session") -> dict:
        count = session.frontier.pi_hat_uncovered(int(request["gid"]))
        return {"count": int(count)}

    def _op_nbhd(self, request: dict, session: "_Session") -> dict:
        part = session.frontier.neighborhood_of(
            int(request["gid"]), *_deficit_from_wire(request)
        )
        if isinstance(part, np.ndarray):
            return {"words": wire.words_to_wire(part)}
        return {"bound": int(part)}

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
        "pi_hat": _op_pi_hat,
        "nbhd": _op_nbhd,
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
    manifest_path,
    shard_id: int,
    replica_index: int,
    frame,
    max_frame: int = wire.MAX_FRAME_BYTES,
) -> None:
    """Forked-process entry: serve frames on ``conn`` until EOF.

    Everything heavy (shard artifact load, engine setup) happens before
    the first response, so the supervisor's ``hello`` handshake doubles
    as a readiness gate.
    """
    worker = ShardWorker(
        database, distance, manifest_path, shard_id, replica_index,
        frame=frame,
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
