"""The NB-Index: vantage orderings, π̂ bounds, query engine."""

from repro.index.vantage import (
    VantageEmbedding,
    select_vantage_points,
)
from repro.index.fpr import (
    choose_num_vps,
    distance_moments,
    empirical_fpr,
    fpr_uniform,
    fpr_upper_bound_gaussian,
)
from repro.index.pivec import ThresholdLadder, choose_thresholds
from repro.index.nbindex import NBIndex, QueryResult, QuerySession, QueryStats
from repro.index.persistence import load_index, save_index
from repro.resilience.errors import (
    CorruptIndexError,
    DatabaseMismatchError,
    IndexFormatError,
)

__all__ = [
    "save_index",
    "load_index",
    "CorruptIndexError",
    "IndexFormatError",
    "DatabaseMismatchError",
    "VantageEmbedding",
    "select_vantage_points",
    "fpr_upper_bound_gaussian",
    "fpr_uniform",
    "choose_num_vps",
    "empirical_fpr",
    "distance_moments",
    "ThresholdLadder",
    "choose_thresholds",
    "NBIndex",
    "QuerySession",
    "QueryResult",
    "QueryStats",
]
