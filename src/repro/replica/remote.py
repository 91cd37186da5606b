"""Coordinator-side remote frontier: the frontier protocol over the wire.

A :class:`RemoteFrontier` is a drop-in participant in
:func:`repro.shard.coordinator.run_greedy` — same methods, same
attributes — whose state lives in a replicated group of worker
processes.  The split between op classes is the heart of the failover
design:

* ``begin_round`` / ``open_round`` / ``select`` are **broadcast**
  through the router to every live replica, so any of them can serve the
  next read.
* ``next`` / ``pi_hat`` / ``nbhd`` are **routed** to the primary with
  failover.  ``next`` advances the primary's lazy walk; a failover
  lands on a sibling whose walk is *behind*, which can re-offer
  candidates the coordinator already saw.  That is safe: the
  incumbent logic absorbs duplicates (a candidate can never beat itself
  under the (max gain, min id) rule), exact gains are functions of the
  coordinator-supplied covered set, and every bound any replica reports
  is a true upper bound on the gains the coordinator has *not yet
  consumed* — so kills and failovers move work counts, never answer
  bits.

Every op carries the session id; a replica that does not hold the
session (fresh restart, LRU eviction) is repaired by replaying this
frontier's :class:`SessionLog` — the relevance spec, the selections so
far, and the current round — before the op runs.  Selection replay is
the one mandatory piece (a restored replica must never re-offer a chosen
graph); everything else in the log just tightens bounds sooner.
"""

from __future__ import annotations

import numpy as np

from repro.replica import wire
from repro.replica.router import ReplicaRouter
from repro.utils.validation import require

_NEG_INF = float("-inf")


def _deficit_to_wire(min_useful: float, tie_gid: int | None) -> dict:
    """``mu`` / ``tie`` of a ``next`` or ``nbhd`` frame (``-inf`` and "no
    incumbent" both travel as ``null``)."""
    return {
        "mu": None if min_useful == _NEG_INF else float(min_useful),
        "tie": None if tie_gid is None else int(tie_gid),
    }


class SessionLog:
    """Everything needed to rebuild one shard's session on a fresh replica."""

    __slots__ = (
        "sid", "open_payload", "selects", "last_cov", "round_cov",
        "round_open", "degradations", "min_gid", "expected_relevant",
    )

    def __init__(self, sid: str, open_payload: dict, expected_relevant: int):
        self.sid = sid
        self.open_payload = dict(open_payload)
        self.selects: list[int] = []
        self.last_cov: str | None = None
        self.round_cov: str | None = None
        self.round_open = False
        #: Worker-reported degradation counts, element-wise max over
        #: replicas (duplicated work must not double-count).
        self.degradations: dict[str, int] = {}
        self.min_gid: int | None = None
        self.expected_relevant = int(expected_relevant)

    @property
    def mid_query(self) -> bool:
        """True once there is query progress worth calling a *restore*."""
        return bool(self.selects) or self.last_cov is not None

    def replay_payloads(self) -> list[dict]:
        steps = [self.open_payload]
        steps.extend(
            {"op": "select", "sid": self.sid, "gid": int(gid)}
            for gid in self.selects
        )
        if self.last_cov is not None:
            steps.append(
                {"op": "begin_round", "sid": self.sid, "cov": self.last_cov}
            )
        if self.round_open and self.round_cov is not None:
            steps.append(
                {"op": "open_round", "sid": self.sid, "cov": self.round_cov}
            )
        return steps

    def note_open_result(self, result: dict) -> None:
        require(
            int(result.get("relevant", -1)) == self.expected_relevant,
            "replica derived a different relevant set than the "
            "coordinator — database mismatch between processes",
        )
        self.min_gid = int(result["min_gid"])

    def note_degradations(self, reported: dict) -> None:
        for kind, count in reported.items():
            if int(count) > self.degradations.get(kind, 0):
                self.degradations[kind] = int(count)


class RemoteFrontier:
    """One replicated shard's frontier, spoken over the router."""

    def __init__(
        self,
        router: ReplicaRouter,
        shard_id: int,
        sid: str,
        *,
        dims,
        threshold: float,
        theta: float,
        relevant_global: np.ndarray,
        universe,
        deadline_state: dict | None = None,
        epsilon: float = 0.0,
    ):
        self.router = router
        self.shard_id = int(shard_id)
        self.universe = universe
        #: This shard's relevant members (coordinator-side copy — the
        #: membership split is a pure function of the manifest).
        self.relevant_global = np.asarray(relevant_global, dtype=np.int64)
        open_payload = {
            "op": "open",
            "sid": sid,
            "dims": [int(d) for d in dims],
            "threshold": float(threshold),
            "theta": float(theta),
        }
        if deadline_state is not None:
            open_payload["deadline"] = deadline_state
        if epsilon:
            # Omitted at 0: exact sessions keep their open frames
            # byte-identical to older coordinators.
            open_payload["epsilon"] = epsilon
        self.session = SessionLog(
            sid, open_payload, self.relevant_global.size
        )
        self.uncovered_count = 0
        self._root = _NEG_INF

    # ------------------------------------------------------------------
    # Frontier protocol (see shard/coordinator.py)
    # ------------------------------------------------------------------
    def begin_round(self, covered: np.ndarray) -> None:
        cov = wire.words_to_wire(covered)
        self.session.last_cov = cov
        self.session.round_open = False
        result = self.router.broadcast(
            self.shard_id,
            {"op": "begin_round", "sid": self.session.sid, "cov": cov},
            self.session,
        )
        self.uncovered_count = int(result["unc"])
        root = result.get("root")
        self._root = _NEG_INF if root is None else float(root)

    def root_bound(self) -> float:
        return self._root

    def min_gid_bound(self) -> int:
        # Set by the first ensured open (begin_round always precedes use).
        return int(self.session.min_gid)

    #: Workers serve immutable bundles: every graph's frame row is stored.
    foreign_embeds = 0

    def open_round(self, covered: np.ndarray) -> "RemoteRoundSearch":
        cov = wire.words_to_wire(covered)
        self.session.round_cov = cov
        self.session.round_open = True
        result = self.router.broadcast(
            self.shard_id,
            {"op": "open_round", "sid": self.session.sid, "cov": cov},
            self.session,
        )
        peek = result.get("peek")
        return RemoteRoundSearch(
            self, _NEG_INF if peek is None else float(peek)
        )

    def pi_hat_uncovered(self, gid: int) -> int:
        result = self.router.call(
            self.shard_id,
            {"op": "pi_hat", "sid": self.session.sid, "gid": int(gid)},
            self.session,
        )
        return int(result["count"])

    def neighborhood_of(
        self, gid: int, min_useful: float = _NEG_INF, tie_gid: int | None = None
    ) -> np.ndarray | int:
        result = self.router.call(
            self.shard_id,
            {
                "op": "nbhd", "sid": self.session.sid, "gid": int(gid),
                **_deficit_to_wire(min_useful, tie_gid),
            },
            self.session,
        )
        if "bound" in result:
            return int(result["bound"])
        return wire.words_from_wire(
            result.get("words"), self.universe.num_words
        )

    def select(self, gid: int) -> None:
        # Log first: a replica restored *during* this broadcast must
        # replay the selection (select is idempotent worker-side).
        self.session.selects.append(int(gid))
        self.router.broadcast(
            self.shard_id,
            {"op": "select", "sid": self.session.sid, "gid": int(gid)},
            self.session,
        )

    def apply_update(self, *args) -> None:
        # Trace-only: benchmarks/e2e/trace.py wraps this name, so it must
        # resolve; no query calls it, and workers have no such op.
        pass

    def close(self) -> None:
        self.router.close_session(self.shard_id, self.session)

    def __repr__(self) -> str:
        return (
            f"<RemoteFrontier shard={self.shard_id} "
            f"sid={self.session.sid} relevant={self.relevant_global.size}>"
        )


class RemoteRoundSearch:
    """Round cursor over the replicated frontier (lazy pull protocol).

    ``peek`` is the last bound the serving replica reported.  After a
    failover it may be *stale-low* relative to the new (behind) primary —
    that is still sound: the cached value upper-bounds every candidate
    the coordinator has not consumed, and anything the behind replica
    re-offers above it is a duplicate the incumbent logic discards.
    """

    def __init__(self, frontier: RemoteFrontier, peek: float):
        self.frontier = frontier
        self._peek = peek

    def peek(self) -> float:
        return self._peek

    def next(self, min_useful: float, tie_gid: int | None):
        session = self.frontier.session
        result = self.frontier.router.call(
            self.frontier.shard_id,
            {
                "op": "next", "sid": session.sid,
                **_deficit_to_wire(min_useful, tie_gid),
            },
            session,
        )
        peek = result.get("peek")
        self._peek = _NEG_INF if peek is None else float(peek)
        candidate = result.get("cand")
        if candidate is None:
            return None
        neighborhood = wire.words_from_wire(
            candidate.get("nbhd"), self.frontier.universe.num_words
        )
        return int(candidate["gid"]), float(candidate["gain"]), neighborhood
