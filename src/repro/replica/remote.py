"""Coordinator-side remote frontier: the frontier protocol over the wire.

A :class:`RemoteFrontier` is the one participant of
:func:`repro.index.coordinator.run_greedy` in a replicated query — same
methods, same attributes as an in-process frontier — whose state lives in
one worker process: the replica the router pinned this query attempt to.
It sends ``open`` once, when it is built, and every later op
(``begin_round`` / ``open_round`` / ``next`` / ``select``) to that
replica only, so the worker's frontier sees exactly the op sequence the
in-process bundle's frontier sees.  The worker holds every relevant
graph, so the loop never asks this frontier about a foreign one.  A
failed op raises :class:`~repro.replica.errors.SessionLost` out of the
greedy, and the cluster re-runs the query from scratch.
"""

from __future__ import annotations

import numpy as np

from repro.replica import wire
from repro.replica.router import ReplicaRouter
from repro.replica.supervisor import WorkerHandle
from repro.utils.validation import require

_NEG_INF = float("-inf")


def _deficit_to_wire(min_useful: float, tie_gid: int | None) -> dict:
    """``mu`` / ``tie`` of a ``next`` frame (``-inf`` and "no incumbent"
    both travel as ``null``)."""
    return {
        "mu": None if min_useful == _NEG_INF else float(min_useful),
        "tie": None if tie_gid is None else int(tie_gid),
    }


class RemoteFrontier:
    """The bundle's frontier, served by the replica its session is pinned to."""

    def __init__(
        self,
        router: ReplicaRouter,
        handle: WorkerHandle,
        sid: str,
        *,
        dims,
        threshold: float,
        theta: float,
        relevant_global: np.ndarray,
        universe,
        deadline_state: dict | None = None,
    ):
        self.router = router
        self.handle = handle
        self.sid = sid
        self.universe = universe
        #: The query's relevant graphs (coordinator-side copy; the worker
        #: derives the same set from the relevance spec).
        self.relevant_global = np.asarray(relevant_global, dtype=np.int64)
        self.uncovered_count = 0
        self._root = _NEG_INF
        open_payload = {
            "op": "open",
            "sid": sid,
            "dims": [int(d) for d in dims],
            "threshold": float(threshold),
            "theta": float(theta),
        }
        if deadline_state is not None:
            open_payload["deadline"] = deadline_state
        result = self._call(open_payload)
        require(
            int(result.get("relevant", -1)) == self.relevant_global.size,
            "replica derived a different relevant set than the "
            "coordinator — database mismatch between processes",
        )
        self._min_gid = int(result["min_gid"])

    def _call(self, payload: dict) -> dict:
        return self.router.call(self.handle, payload)["r"]

    # ------------------------------------------------------------------
    # Frontier protocol (see index/coordinator.py)
    # ------------------------------------------------------------------
    def begin_round(self, covered: np.ndarray) -> None:
        result = self._call({
            "op": "begin_round", "sid": self.sid,
            "cov": wire.words_to_wire(covered),
        })
        self.uncovered_count = int(result["unc"])
        root = result.get("root")
        self._root = _NEG_INF if root is None else float(root)

    def root_bound(self) -> float:
        return self._root

    def min_gid_bound(self) -> int:
        return self._min_gid

    #: Workers serve immutable bundles: every graph's frame row is stored.
    foreign_embeds = 0

    def open_round(self, covered: np.ndarray) -> "RemoteRoundSearch":
        result = self._call({
            "op": "open_round", "sid": self.sid,
            "cov": wire.words_to_wire(covered),
        })
        peek = result.get("peek")
        return RemoteRoundSearch(
            self, _NEG_INF if peek is None else float(peek)
        )

    # Trace-only, like apply_update: benchmarks/e2e/trace.py wraps these
    # names, so they must resolve.  The one-frontier loop never calls
    # them (no graph is foreign to the whole bundle) and workers have no
    # such ops.
    def pi_hat_uncovered(self, gid: int) -> int:
        raise NotImplementedError("a replicated frontier has no foreign graph")

    def neighborhood_of(
        self, gid: int, min_useful: float = _NEG_INF, tie_gid: int | None = None
    ) -> np.ndarray | int:
        raise NotImplementedError("a replicated frontier has no foreign graph")

    def select(self, gid: int) -> None:
        self._call({"op": "select", "sid": self.sid, "gid": int(gid)})

    def apply_update(self, *args) -> None:
        # Trace-only: benchmarks/e2e/trace.py wraps this name, so it must
        # resolve; no query calls it, and workers have no such op.
        pass

    def __repr__(self) -> str:
        return (
            f"<RemoteFrontier replica={self.handle.replica_index} "
            f"sid={self.sid} relevant={self.relevant_global.size}>"
        )


class RemoteRoundSearch:
    """Round cursor over the remote frontier (lazy pull protocol);
    ``peek`` is the last bound the worker's walk reported."""

    def __init__(self, frontier: RemoteFrontier, peek: float):
        self.frontier = frontier
        self._peek = peek

    def peek(self) -> float:
        return self._peek

    def next(self, min_useful: float, tie_gid: int | None):
        frontier = self.frontier
        result = frontier._call({
            "op": "next", "sid": frontier.sid,
            **_deficit_to_wire(min_useful, tie_gid),
        })
        peek = result.get("peek")
        self._peek = _NEG_INF if peek is None else float(peek)
        candidate = result.get("cand")
        if candidate is None:
            return None
        neighborhood = wire.words_from_wire(
            candidate.get("nbhd"), frontier.universe.num_words
        )
        return int(candidate["gid"]), float(candidate["gain"]), neighborhood
