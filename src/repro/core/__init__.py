"""Core REP model: greedy engines, representative power, the public facade."""

from repro.core.results import QueryResult, QueryStats
from repro.core.representative import (
    all_theta_neighborhoods,
    coverage,
    marginal_gain,
    representative_power,
    theta_neighborhood,
    verify_submodularity,
)
from repro.core.greedy import baseline_greedy, lazy_greedy
from repro.core.bruteforce import greedy_guarantee_holds, optimal_answer
from repro.core.reduction import (
    LookupDistance,
    ReducedInstance,
    SetCoverInstance,
    reduce_set_cover,
)
from repro.core.query import TopKRepresentativeQuery

__all__ = [
    "QueryResult",
    "QueryStats",
    "theta_neighborhood",
    "all_theta_neighborhoods",
    "coverage",
    "representative_power",
    "marginal_gain",
    "verify_submodularity",
    "baseline_greedy",
    "lazy_greedy",
    "optimal_answer",
    "greedy_guarantee_holds",
    "SetCoverInstance",
    "reduce_set_cover",
    "ReducedInstance",
    "LookupDistance",
    "TopKRepresentativeQuery",
]
