"""Distance-distribution analysis (Figs. 5(a)–(e) of the paper).

The paper uses the pairwise-distance CDF of each dataset to calibrate θ
and its π̂ thresholds, and the distance histogram's Gaussian fit to size the
vantage-point set.  This module computes those artifacts from sampled
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ged.metric import GraphDistanceFn
from repro.graphs.database import GraphDatabase


@dataclass
class DistanceDistribution:
    """Sampled pairwise distances plus derived summaries."""

    samples: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def std(self) -> float:
        return float(self.samples.std())

    @property
    def diameter_estimate(self) -> float:
        """Largest sampled distance — a lower bound on the true diameter,
        used as the ``mθ`` of the uniform FPR model (Eq. 12)."""
        return float(self.samples.max())

    def cdf(self, thetas) -> np.ndarray:
        """Cumulative distribution F(θ) at the given thresholds (Fig. 5(a–b))."""
        sorted_samples = np.sort(self.samples)
        thetas = np.asarray(list(thetas), dtype=float)
        return np.searchsorted(sorted_samples, thetas, side="right") / len(
            sorted_samples
        )

    def histogram(self, bins: int = 30) -> tuple[np.ndarray, np.ndarray]:
        """Density histogram (Fig. 5(c–e)): (bin_centers, densities)."""
        densities, edges = np.histogram(self.samples, bins=bins, density=True)
        centers = (edges[:-1] + edges[1:]) / 2.0
        return centers, densities

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.samples, q))


def sample_distances(
    database: GraphDatabase,
    distance: GraphDistanceFn,
    num_pairs: int = 2000,
    rng=None,
) -> DistanceDistribution:
    """Sample uniformly random distinct pairs and their distances (one
    engine batch; ``distance`` is a metric or a
    :class:`~repro.engine.DistanceEngine`)."""
    from repro.index.pivec import sample_pair_distances

    return DistanceDistribution(
        sample_pair_distances(database.graphs, distance, num_pairs, rng)
    )
