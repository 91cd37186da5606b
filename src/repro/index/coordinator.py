"""The one greedy loop: lazy best-first selection over any frontier mix.

One coordinator drives the global lazy best-first loop of Algorithm 2 over
S independent frontiers (:class:`~repro.index.frontier.Frontier`).  A plain
``NBIndex`` query is the S = 1 case: one index frontier, nothing foreign,
so every foreign rung of the ladder below sums over nothing — and so is a
sharded bundle's, in process or behind replicas (one remote frontier over
the whole bundle).  Several frontiers meet only beside a memtable: a
mutable index's base and its un-indexed graphs.
Every greedy round runs a threshold-algorithm pull over the frontiers
("shards" below), each of which exposes its best remaining *local* gain
bound (:meth:`~repro.index.frontier.RoundCursor.peek`):

1. Frontiers are ranked by ``peek(shard) + foreign_uncovered(shard)`` — the
   local bound plus the count of uncovered relevant graphs living on other
   shards, a trivially valid bound on any candidate's *global* gain.
2. The top shard is pulled: its frontier advances its lazy scan to
   the next candidate and returns its exact local gain.  What the *other*
   frontiers can add descends a ladder of successively tighter (and
   dearer) bounds, one deficit spent across all of them:

   * **tier 1** — each foreign frontier's uncovered count (free);
   * **memo** — the bounds the frontiers reported when the candidate was
     dropped in an earlier round, summed before anyone is asked anything;
   * **tier 2** — every foreign frontier *opens* the candidate's window
     (:meth:`~repro.index.frontier.Frontier.pi_hat_uncovered`): Chebyshev
     lower bound over its uncovered members, free verdicts folded in —
     zero exact calls: the candidate's coordinates are a row of the
     bundle's one vantage frame;
   * **tier 3** — frontier by frontier, in index order, each is asked to
     verify its window only as far as ``incumbent − local gain − Σ the
     other frontiers' current bounds`` requires
     (:meth:`~repro.index.frontier.Frontier.neighborhood_of`).  The first
     frontier that proves the candidate out answers with a bound instead
     of a neighborhood and the candidate is dropped there; one that
     survives them all has its union cached as its exact global
     neighborhood.

   A candidate falls off the ladder the moment a bound can no longer beat
   (or id-tie-break) the incumbent.
3. When the best shard's bound cannot beat the incumbent, the round is
   over: the incumbent is *the* canonical greedy selection — the maximum
   exact marginal gain with ties broken by smallest global id — so the
   answer is bit-identical regardless of S or partitioner.
4. The selection is retired at its home frontier.  Nothing else is told:
   the next round's ``begin_round`` hands every frontier the covered set,
   and every bound it already holds stays valid.

Every bound above is an upper bound on the candidate's gain among one
frontier's members *at the time it is computed*, and gains only shrink as
coverage grows (submodularity), so bounds taken in different rounds may be
summed and reused across rounds.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from repro.bitset import kernel as bitset_kernel
from repro.resilience.deadline import check_deadline


def _beats(bound: float, gid: int, inc_gain: float, inc_gid: int | None) -> bool:
    """Can a candidate with this bound still win against the incumbent
    under the (max gain, min id) selection rule?"""
    if inc_gid is None:
        return True
    return bound > inc_gain or (bound == inc_gain and gid < inc_gid)


def new_coord(num_frontiers: int) -> dict:
    """Fresh loop accounting (``QueryStats.coordinator``)."""
    return {
        "shards": num_frontiers,
        "rounds": 0,
        "pulls": 0,
        "pi_hat_refines": 0,
        "refine_prunes": 0,
        "partial_scatters": 0,
        "memo_prunes": 0,
        "scatter_resolves": 0,
        "foreign_embeds": 0,
    }


def run_greedy(
    frontiers,
    home_of,
    universe,
    k: int,
    num_relevant: int,
    *,
    stop_on_zero_gain: bool,
    stats,
):
    """The full scatter-gather greedy over any frontier-protocol mix.

    ``home_of(gid)`` returns the frontier that owns ``gid`` (the one whose
    :meth:`select` retires it).  Returns ``(answer, gains, covered,
    coord)`` with ``covered`` as a packed bitset over ``universe`` and
    ``coord`` the loop's accounting (:func:`new_coord`).  Each round
    starts by checking the query's deadline (:func:`check_deadline`).
    """
    coord = new_coord(len(frontiers))
    covered = universe.empty()
    answer: list[int] = []
    gains: list[int] = []
    #: Fully resolved *global* neighborhoods from tier-3 scatters (packed
    #: global bitsets), kept across rounds.
    global_nbhd: dict[int, object] = {}
    #: ``gid → {frontier → bound}``: what each foreign frontier last
    #: reported about a candidate that was dropped before resolution.
    memo: dict[int, dict[int, float]] = {}

    for _ in range(min(k, num_relevant)):
        check_deadline()
        search_started = time.perf_counter()
        coord["rounds"] += 1
        selection = _run_round(frontiers, covered, global_nbhd, memo, coord)
        stats.search_seconds += time.perf_counter() - search_started
        if selection is None:
            break
        gid, neighborhood = selection
        newly = bitset_kernel.andnot(neighborhood, covered)
        gain = bitset_kernel.popcount(newly)
        if not gain and stop_on_zero_gain:
            break
        answer.append(gid)
        gains.append(gain)
        bitset_kernel.union_into(covered, newly)
        home_of(gid).select(gid)

    coord["foreign_embeds"] = sum(f.foreign_embeds for f in frontiers)
    coord["shard_relevant"] = [int(f.relevant_global.size) for f in frontiers]
    return answer, gains, covered, coord


def _run_round(frontiers, covered, global_nbhd, memo, coord):
    """One greedy selection: threshold-algorithm pull over the frontiers.

    Returns ``(gid, exact global neighborhood)`` of the canonical argmax,
    or ``None`` when no candidate remains."""
    total_uncovered = 0
    for frontier in frontiers:
        frontier.begin_round(covered)
        total_uncovered += frontier.uncovered_count

    rounds: dict[int, object] = {}
    shard_heap: list[tuple[float, int]] = []
    for s, frontier in enumerate(frontiers):
        local_top = frontier.root_bound()
        if local_top == float("-inf"):
            continue
        foreign = total_uncovered - frontier.uncovered_count
        heapq.heappush(shard_heap, (-(local_top + foreign), s))

    inc_gid: int | None = None
    inc_gain = -1.0
    inc_nbhd = None

    while shard_heap:
        neg_bound, s = heapq.heappop(shard_heap)
        shard_bound = -neg_bound
        if inc_gid is not None:
            if shard_bound < inc_gain:
                # The best-ranked frontier cannot reach the incumbent's
                # gain; no other frontier can either (max-heap).
                break
            if shard_bound == inc_gain and frontiers[s].min_gid_bound() > inc_gid:
                # This frontier can at best tie the incumbent's gain, and
                # every graph it holds loses the id tie-break — drop it
                # for the round, but later frontiers may still tie-win.
                continue
        frontier = frontiers[s]
        foreign = total_uncovered - frontier.uncovered_count
        round_search = rounds.get(s)
        if round_search is None:
            round_search = rounds[s] = frontier.open_round(covered)
        min_useful = (
            float("-inf") if inc_gid is None else inc_gain - foreign
        )
        candidate = round_search.next(min_useful, inc_gid)
        if candidate is None:
            continue  # frontier exhausted for this round (final)
        coord["pulls"] += 1
        gid, local_gain, local_nbhd = candidate
        resolved = _resolve_candidate(
            gid, local_gain, local_nbhd, s, frontiers, covered,
            global_nbhd, memo, coord, inc_gain, inc_gid,
        )
        if resolved is not None:
            gain, neighborhood = resolved
            if _beats(gain, gid, inc_gain, inc_gid):
                inc_gid, inc_gain, inc_nbhd = gid, gain, neighborhood
        next_local = round_search.peek()
        if next_local != float("-inf"):
            heapq.heappush(shard_heap, (-(next_local + foreign), s))

    if inc_gid is None:
        return None
    return inc_gid, inc_nbhd


def _resolve_candidate(
    gid, local_gain, local_nbhd, home, frontiers, covered,
    global_nbhd, memo, coord, inc_gain, inc_gid,
):
    """Climb the bound ladder for one pulled candidate.

    Returns ``(exact global gain, exact global neighborhood)`` when the
    candidate survives every frontier (or did in an earlier round),
    ``None`` when a bound proves it cannot win."""
    cached = global_nbhd.get(gid)
    if cached is not None:
        # Resolved in an earlier round: the exact gain is one batch
        # popcount away — no scatter needed.
        return (
            float(bitset_kernel.uncovered_count(cached, covered)),
            cached,
        )

    foreign = [(s, f) for s, f in enumerate(frontiers) if s != home]
    if not _beats(
        local_gain + sum(f.uncovered_count for _, f in foreign),
        gid, inc_gain, inc_gid,
    ):
        return None  # tier 1

    bounds = memo.get(gid)
    if bounds is not None and not _beats(
        local_gain + sum(
            min(bounds[s], f.uncovered_count) for s, f in foreign
        ),
        gid, inc_gain, inc_gid,
    ):
        coord["memo_prunes"] += 1
        return None  # what the frontiers said last time still rules it out

    bounds = memo[gid] = {s: f.pi_hat_uncovered(gid) for s, f in foreign}
    coord["pi_hat_refines"] += 1
    total = local_gain + sum(bounds.values())
    if not _beats(total, gid, inc_gain, inc_gid):
        coord["refine_prunes"] += 1
        return None  # tier 2

    neighborhood = local_nbhd.copy()
    for s, frontier in foreign:
        # What this frontier has to contribute for the candidate to stay
        # in the round, the others counted at their current bounds.
        elsewhere = total - bounds[s]
        part = frontier.neighborhood_of(
            gid,
            float("-inf") if inc_gid is None else inc_gain - elsewhere,
            inc_gid,
        )
        if not isinstance(part, np.ndarray):
            bounds[s] = part
            coord["partial_scatters"] += 1
            return None  # tier 3, proven out mid-verification
        bounds[s] = bitset_kernel.uncovered_count(part, covered)
        total = elsewhere + bounds[s]
        bitset_kernel.union_into(neighborhood, part)
    global_nbhd[gid] = neighborhood
    del memo[gid]
    coord["scatter_resolves"] += 1
    return (
        float(bitset_kernel.uncovered_count(neighborhood, covered)),
        neighborhood,
    )
