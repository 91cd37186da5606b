"""Threshold ladders: the paper's π̂-vector rungs (Def. 6 and Sec. 7.1).

In the paper a π̂-vector stores, per graph, upper bounds on its
representative power at a fixed ladder of distance thresholds
``θ_1 < … < θ_t``, and the bound for an arbitrary θ is read from the
smallest indexed ``θ_i ≥ θ`` (π̂ is monotone in θ).  This repository
computes π̂ per query at θ itself (:mod:`repro.index.frontier`), so an
index stores no ladder and the θ-to-rung gap of Figs. 5(l)/6(a) is 0 by
construction.  What is left here is a way to pick a spread of θ values —
for benchmarks and tests that query at several thresholds — by Sec. 7.1's
*no information* scheme: place thresholds proportionally to the slope of
the π(g)-vs-θ curve, i.e. densely where the pairwise-distance CDF is
steep.  Since the average π(g) at θ is exactly ``|L_q|`` times the
distance CDF at θ, equal-mass quantiles of a sampled pairwise-distance
distribution achieve slope-proportional placement; that is
:func:`choose_thresholds`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.engine import DistanceEngine
from repro.ged.metric import GraphDistanceFn
from repro.utils.rng import ensure_rng
from repro.utils.validation import require


class ThresholdLadder(tuple):
    """Distance thresholds as a sorted, deduplicated tuple of floats."""

    def __new__(cls, thresholds: Iterable[float]):
        values = sorted(set(float(t) for t in thresholds))
        require(len(values) > 0, "ladder must contain at least one threshold")
        require(values[0] >= 0.0, "thresholds must be non-negative")
        return super().__new__(cls, values)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self)


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
    one sampler behind :func:`choose_thresholds`, θ calibration and the
    distance distribution: :func:`sample_distinct_pairs`, then one engine batch."""
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
    """Slope-proportional thresholds from sampled pairwise distances
    (Sec. 7.1, scheme 2).

    Thresholds are the equal-mass quantiles of a random-pair distance
    sample, so regions where π(g) climbs steeply with θ (dense distance
    mass) receive more of them.
    """
    require(count >= 1, f"count must be >= 1, got {count}")
    samples = sample_pair_distances(graphs, distance, num_pairs, rng)
    quantile_levels = np.linspace(0.0, 1.0, count + 1)[1:]
    thresholds = np.quantile(samples, quantile_levels)
    return ThresholdLadder(thresholds)

