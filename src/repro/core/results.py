"""Result and statistics types shared by every query engine.

The NB-Index, the baseline greedy, and all competing algorithms report
their answers through the same :class:`QueryResult`, so the benchmark
harness and the quality metrics (π(A), compression ratio) treat engines
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class QueryStats:
    """Work accounting for one top-k query.

    Engines fill only the fields that apply to them: the NB-Index reports
    search counters (``nodes_popped`` — bound-order pops —,
    ``leaves_evaluated`` — members resolved —, ...), the
    greedy baselines gain-evaluation counters (``gain_evaluations``,
    ``reheap_count``); everything else stays at zero.
    """

    distance_calls: int = 0
    candidate_verifications: int = 0
    candidates_generated: int = 0
    #: θ-neighborhoods resolved to completion.
    exact_neighborhoods: int = 0
    #: Members left partially verified at query end: each was proven
    #: unable to win every round that reached it before its candidate
    #: window was exhausted.
    partial_neighborhoods: int = 0
    #: Window members of those leaves that never needed a verdict — still
    #: unverified at query end, or covered before their turn came.
    verifications_skipped: int = 0
    nodes_popped: int = 0
    leaves_evaluated: int = 0
    gain_evaluations: int = 0
    reheap_count: int = 0
    init_seconds: float = 0.0
    search_seconds: float = 0.0
    #: ``{kind: count}`` of the upper-bound edit distances a Deadline
    #: forced into this query; empty for an exact answer.
    degradations: dict = field(default_factory=dict)
    #: Sharded-query accounting (scatter-gather coordinator only): pull /
    #: resolve counts plus the per-shard work split.  Empty for
    #: single-index engines.
    coordinator: dict = field(default_factory=dict)
    #: True when the query ran in the ε-relaxed approximate mode
    #: (``epsilon > 0``): neighborhoods satisfy ``N_{(1−ε)θ} ⊆ N' ⊆ N_θ``
    #: and greedy keeps the (1 − 1/e − ε) guarantee.
    approximate: bool = False
    #: The configured relaxation factor (0.0 for exact queries).
    epsilon: float = 0.0
    #: The query filter's counters (``{"assignment" | "vantage": {evals,
    #: prunes, accepts, seconds}}``, a step that never ran absent); empty
    #: on a replicated index, whose workers do the filtering.
    cascade: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.init_seconds + self.search_seconds

    @property
    def degraded(self) -> bool:
        """True when a deadline forced upper-bound edit distances into this
        query — the answer is valid but not exact."""
        return bool(self.degradations)

    @property
    def degradation_events(self) -> int:
        return sum(self.degradations.values())

    def stats(self) -> dict:
        """Statable protocol: every counter/timer as a plain dict."""
        from dataclasses import asdict

        out = asdict(self)
        out["total_seconds"] = self.total_seconds
        out["degraded"] = self.degraded
        out["degradation_events"] = self.degradation_events
        return out


@dataclass
class QueryResult:
    """Answer of a top-k representative query.

    ``answer`` holds database graph ids in selection order; ``gains`` the
    exact marginal gain (count of newly covered relevant graphs) of each
    selection; ``covered`` the union of the answer's θ-neighborhoods over
    the relevant set.
    """

    answer: list[int]
    gains: list[int]
    covered: frozenset[int]
    num_relevant: int
    theta: float
    stats: QueryStats = field(default_factory=QueryStats)
    #: Certified upper bound U ≥ OPT on the covered count of any k graphs
    #: (:func:`certify`); ``None`` when degraded or ε > 0.
    opt_upper: int | None = None
    #: ``len(covered) / opt_upper`` — provably ≥ 1 − (1 − 1/k)^k.
    certified_ratio: float | None = None

    @property
    def pi(self) -> float:
        """Representative power π(A) ∈ [0, 1] (Eq. 3)."""
        if self.num_relevant == 0:
            return 0.0
        return len(self.covered) / self.num_relevant

    @property
    def compression_ratio(self) -> float:
        """``|N_θ(A)| / |A|`` — average relevant graphs per exemplar
        (Table 4's CR)."""
        if not self.answer:
            return 0.0
        return len(self.covered) / len(self.answer)

    def __repr__(self) -> str:
        return (
            f"QueryResult(k={len(self.answer)}, pi={self.pi:.3f}, "
            f"CR={self.compression_ratio:.1f}, theta={self.theta:g})"
        )


def certify(result: QueryResult, k: int) -> QueryResult:
    """Fill ``result``'s per-query optimality certificate and return it.

    After i greedy picks with covered count C_i, submodularity gives
    OPT ≤ C_i + k·g_{i+1}, where g_{i+1} is the next pick's exact gain —
    the maximum marginal, which the greedy computes anyway (Nemhauser,
    Wolsey and Fisher 1978; the "online bound" of Leskovec et al., KDD
    2007).  So OPT ≤ U = min(|L_q|, min over i < k of C_i + k·g_{i+1}),
    with g = 0 past a short answer (nothing left adds coverage).  The
    same recurrence proves ``len(covered) / U ≥ 1 − (1 − 1/k)^k``
    (``docs/theory.md``, §8).  Sound only when every gain is an exact
    maximum: a degraded or ε-relaxed result is left uncertified.
    """
    if result.stats.degraded or result.stats.epsilon > 0:
        return result
    gains = [int(g) for g in result.gains]
    bound, running = int(result.num_relevant), 0
    for i in range(k):
        following = gains[i] if i < len(gains) else 0
        bound = min(bound, running + k * following)
        running += following
    result.opt_upper = bound
    result.certified_ratio = len(result.covered) / bound if bound else 1.0
    return result
