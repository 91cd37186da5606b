"""The one greedy loop: lazy best-first selection over any frontier mix.

One coordinator drives the global lazy best-first loop of Algorithm 2 over
S independent frontiers (:class:`~repro.index.frontier.Frontier`).  A plain
``NBIndex`` query is the S = 1 case: one tree frontier, nothing foreign,
so the bound ladder below stops at its free first tier.  Every greedy
round runs a threshold-algorithm pull over the frontiers ("shards" below),
each of which exposes its best remaining *local* gain bound
(:meth:`~repro.index.frontier.RoundCursor.peek`):

1. Frontiers are ranked by ``peek(shard) + foreign_uncovered(shard)`` — the
   local bound plus the count of uncovered relevant graphs living on other
   shards, a trivially valid bound on any candidate's *global* gain.
2. The top shard is pulled: its frontier advances its lazy tree walk to
   the next candidate and returns its exact local gain.  The candidate
   climbs a ladder of successively tighter (and dearer) global bounds:

   * **tier 1** — exact local gain + foreign uncovered count (free);
   * **tier 2** — exact local gain + Σ over foreign shards of the
     π̂-style Chebyshev count of uncovered relevant members within θ
     (array arithmetic against cached foreign coordinates; a few |V|-sized
     distance batches the first time a shard sees the graph);
   * **tier 3** — full scatter resolve: every foreign shard verifies the
     candidate's exact θ-neighborhood members; the union with the local
     part is the true global neighborhood, cached for later rounds.

   A candidate falls off the ladder the moment a bound can no longer beat
   (or id-tie-break) the incumbent.
3. When the best shard's bound cannot beat the incumbent, the round is
   over: the incumbent is *the* canonical greedy selection — the maximum
   exact marginal gain with ties broken by smallest global id — so the
   answer is bit-identical regardless of S or partitioner.
4. The selection is broadcast: newly covered ids flow back into every
   frontier's Theorem 6–8 update walk, keeping all bounds valid for the
   next round.

Every bound above is an upper bound on the candidate's gain *at the time
it is computed*, and gains only shrink as coverage grows (submodularity),
so lazy reuse across rounds is safe.
"""

from __future__ import annotations

import heapq
import time

from repro.bitset import BitsetDelta, kernel as bitset_kernel


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
        "scatter_resolves": 0,
        "broadcasts": 0,
        "broadcast_words": 0,
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
    enable_updates: bool,
    stats,
):
    """The full scatter-gather greedy over any frontier-protocol mix.

    ``home_of(gid)`` returns the frontier that owns ``gid`` (the one whose
    :meth:`select` retires it).  Returns ``(answer, gains, covered,
    coord)`` with ``covered`` as a packed bitset over ``universe`` and
    ``coord`` the loop's accounting (:func:`new_coord`).
    """
    coord = new_coord(len(frontiers))
    covered = universe.empty()
    answer: list[int] = []
    gains: list[int] = []
    #: Fully resolved *global* neighborhoods from tier-3 scatters (packed
    #: global bitsets), kept across rounds.
    global_nbhd: dict[int, object] = {}

    for _ in range(min(k, num_relevant)):
        search_started = time.perf_counter()
        coord["rounds"] += 1
        selection = _run_round(frontiers, covered, global_nbhd, coord)
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
        update_started = time.perf_counter()
        if gain and enable_updates:
            # Word-aligned delta broadcast: only the words that actually
            # changed cross the frontier boundary.
            delta = BitsetDelta.from_words(newly, universe.size)
            coord["broadcast_words"] += delta.num_words
            for frontier in frontiers:
                frontier.apply_update(gid, delta, covered)
            coord["broadcasts"] += 1
        stats.update_seconds += time.perf_counter() - update_started

    coord["foreign_embeds"] = sum(f.foreign_embeds for f in frontiers)
    coord["shard_relevant"] = [int(f.relevant_global.size) for f in frontiers]
    return answer, gains, covered, coord


def _run_round(frontiers, covered, global_nbhd, coord):
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
            global_nbhd, coord, inc_gain, inc_gid,
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
    global_nbhd, coord, inc_gain, inc_gid,
):
    """Climb the bound ladder for one pulled candidate.

    Returns ``(exact global gain, exact global neighborhood)`` when the
    candidate survives to tier 3 (or was resolved in an earlier round),
    ``None`` when a bound proves it cannot win."""
    cached = global_nbhd.get(gid)
    if cached is not None:
        # Resolved in an earlier round: the exact gain is one batch
        # popcount away — no scatter needed.
        return (
            float(bitset_kernel.uncovered_count(cached, covered)),
            cached,
        )

    foreign_frontiers = [
        f for s, f in enumerate(frontiers) if s != home
    ]
    foreign_uncovered = sum(f.uncovered_count for f in foreign_frontiers)
    if not _beats(local_gain + foreign_uncovered, gid, inc_gain, inc_gid):
        return None  # tier 1

    refined = local_gain + sum(
        f.pi_hat_uncovered(gid) for f in foreign_frontiers
    )
    coord["pi_hat_refines"] += 1
    if not _beats(refined, gid, inc_gain, inc_gid):
        coord["refine_prunes"] += 1
        return None  # tier 2

    neighborhood = local_nbhd.copy()
    for frontier in foreign_frontiers:
        bitset_kernel.union_into(neighborhood, frontier.neighborhood_of(gid))
    global_nbhd[gid] = neighborhood
    coord["scatter_resolves"] += 1
    return (
        float(bitset_kernel.uncovered_count(neighborhood, covered)),
        neighborhood,
    )
