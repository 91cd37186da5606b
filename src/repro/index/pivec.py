"""Threshold ladders for π̂-vectors (Def. 6 and Sec. 7.1).

A π̂-vector stores, per graph, upper bounds on its representative power at a
fixed ladder of distance thresholds ``θ_1 < … < θ_t``.  At query time the
bound for an arbitrary θ is read from the smallest indexed ``θ_i ≥ θ``
(π̂ is monotone in θ, so that entry is a valid upper bound for θ).

Section 7.1 gives two schemes for choosing the ladder offline:

* *query log*: sample the thresholds of past queries;
* *no information*: place thresholds proportionally to the slope of the
  π(g)-vs-θ curve — i.e. densely where the pairwise-distance CDF is steep.
  Since the average π(g) at θ is exactly ``|L_q|`` times the distance CDF
  at θ, equal-mass quantiles of a sampled pairwise-distance distribution
  achieve slope-proportional placement; that is :func:`choose_thresholds`.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from repro.engine import DistanceEngine
from repro.ged.metric import GraphDistanceFn
from repro.utils.rng import ensure_rng
from repro.utils.validation import require


class ThresholdLadder:
    """An ordered, deduplicated ladder of indexed distance thresholds."""

    def __init__(self, thresholds: Sequence[float]):
        values = sorted(set(float(t) for t in thresholds))
        require(len(values) > 0, "ladder must contain at least one threshold")
        require(values[0] >= 0.0, "thresholds must be non-negative")
        self.values: tuple[float, ...] = tuple(values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, index: int) -> float:
        return self.values[index]

    def index_for(self, theta: float) -> int | None:
        """Index of the smallest ladder threshold ≥ θ, or ``None`` when θ
        exceeds the ladder (callers fall back to the trivial bound)."""
        position = bisect.bisect_left(self.values, theta)
        return position if position < len(self.values) else None

    def covering_threshold(self, theta: float) -> float | None:
        """The smallest indexed threshold ≥ θ itself, or ``None``."""
        index = self.index_for(theta)
        return self.values[index] if index is not None else None

    def gap(self, theta: float) -> float | None:
        """Distance between θ and its covering threshold (Figs. 5(l)/6(a))."""
        covering = self.covering_threshold(theta)
        return covering - theta if covering is not None else None

    def __repr__(self) -> str:
        inner = ", ".join(f"{v:g}" for v in self.values)
        return f"ThresholdLadder([{inner}])"


def sample_distinct_pairs(n: int, num_pairs: int, rng) -> list[tuple[int, int]]:
    """Uniformly random distinct index pairs, resampling self-pairs.

    The rng draw sequence is exactly the historical interleaved one —
    distance evaluation never consumed randomness — so callers can batch
    the evaluations without perturbing seeded experiments.
    """
    pairs: list[tuple[int, int]] = []
    for _ in range(num_pairs):
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        while j == i:
            j = int(rng.integers(n))
        pairs.append((i, j))
    return pairs


def sample_pair_distances(
    graphs, distance: GraphDistanceFn, num_pairs: int, rng
) -> np.ndarray:
    """Distances of ``num_pairs`` random distinct pairs of ``graphs`` — the
    one sampler behind the π̂ ladder, θ calibration and the distance
    distribution: :func:`sample_distinct_pairs`, then one engine batch."""
    require(len(graphs) >= 2, "need at least two graphs to sample distances")
    pairs = sample_distinct_pairs(len(graphs), num_pairs, ensure_rng(rng))
    engine = DistanceEngine.of(distance, graphs)
    return np.asarray(engine.pairs([(graphs[i], graphs[j]) for i, j in pairs]))


def choose_thresholds(
    graphs,
    distance: GraphDistanceFn,
    count: int = 10,
    num_pairs: int = 1000,
    rng=None,
) -> ThresholdLadder:
    """Slope-proportional ladder from sampled pairwise distances (scheme 2).

    Thresholds are the equal-mass quantiles of a random-pair distance
    sample, so regions where π(g) climbs steeply with θ (dense distance
    mass) receive more indexed thresholds — the paper's recommendation when
    no query log exists.
    """
    require(count >= 1, f"count must be >= 1, got {count}")
    samples = sample_pair_distances(graphs, distance, num_pairs, rng)
    quantile_levels = np.linspace(0.0, 1.0, count + 1)[1:]
    thresholds = np.quantile(samples, quantile_levels)
    return ThresholdLadder(thresholds)


def ladder_from_query_log(
    logged_thetas: Sequence[float],
    count: int = 10,
    rng=None,
) -> ThresholdLadder:
    """Scheme 1: sample (without replacement) from a past-query θ log."""
    logged = [float(t) for t in logged_thetas]
    require(len(logged) > 0, "query log is empty")
    rng = ensure_rng(rng)
    distinct = sorted(set(logged))
    if len(distinct) <= count:
        return ThresholdLadder(distinct)
    chosen = rng.choice(len(logged), size=count, replace=False)
    return ThresholdLadder(logged[int(i)] for i in chosen)
