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
    tree-search counters (``nodes_popped``, ``leaves_evaluated``, ...), the
    greedy baselines gain-evaluation counters (``gain_evaluations``,
    ``reheap_count``); everything else stays at zero.
    """

    distance_calls: int = 0
    candidate_verifications: int = 0
    candidates_generated: int = 0
    #: θ-neighborhoods resolved to completion.
    exact_neighborhoods: int = 0
    #: Tree leaves left partially verified at query end: each was proven
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
