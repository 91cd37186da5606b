"""Dataset registry: named access plus per-dataset θ calibration.

The paper calibrates θ per dataset from the cumulative distance
distribution (Figs. 5(a–b)): "realistic yet posing a significant
scalability challenge" — a low quantile of the pairwise distances, where
neighborhoods are non-trivial but far from all-encompassing.
:func:`calibrate_theta` reproduces that procedure; :func:`load` bundles a
generated database with its calibrated θ and π̂ ladder so every benchmark
configures datasets identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.amazon import amazon_like
from repro.datasets.callgraphs import callgraphs_like
from repro.datasets.cascades import cascades_like
from repro.datasets.dblp import dblp_like
from repro.datasets.dud import dud_like
from repro.ged.metric import GraphDistanceFn
from repro.graphs.database import GraphDatabase
from repro.index.pivec import ThresholdLadder, sample_pair_distances
from repro.utils.rng import ensure_rng
from repro.utils.validation import require

GENERATORS = {
    "dud": dud_like,
    "dblp": dblp_like,
    "amazon": amazon_like,
    "cascades": cascades_like,
    "callgraphs": callgraphs_like,
}


def calibrate_theta(
    database: GraphDatabase,
    distance: GraphDistanceFn,
    quantile: float = 0.05,
    num_pairs: int = 1500,
    rng=None,
) -> float:
    """θ at the given quantile of sampled pairwise distances.

    The paper's procedure: inspect the distance CDF and pick a θ where a
    meaningful minority of pairs are neighbors (θ=10 sits low on the
    DUD/DBLP CDFs, θ=75 on Amazon's stretched one).
    """
    require(0.0 < quantile < 1.0, f"quantile must be in (0, 1), got {quantile}")
    samples = sample_pair_distances(database.graphs, distance, num_pairs, rng)
    return float(np.quantile(samples, quantile))


def ladder_for(
    database: GraphDatabase,
    distance: GraphDistanceFn,
    count: int = 10,
    rng=None,
) -> ThresholdLadder:
    """Slope-proportional π̂ ladder, as in Sec. 8.2.2 item 1."""
    from repro.index.pivec import choose_thresholds

    return choose_thresholds(
        database.graphs, distance, count=count,
        num_pairs=min(1000, len(database) * 4), rng=rng,
    )


@dataclass
class DatasetSpec:
    """A dataset instance with its calibrated query parameters."""

    name: str
    database: GraphDatabase
    theta: float
    ladder: ThresholdLadder

    def summary(self) -> dict:
        info = self.database.summary()
        info["name"] = self.name
        info["theta"] = self.theta
        return info


def load(
    name: str,
    distance: GraphDistanceFn,
    num_graphs: int = 500,
    seed: int = 7,
    theta_quantile: float = 0.05,
    **generator_kwargs,
) -> DatasetSpec:
    """Generate a named dataset and calibrate its θ and ladder."""
    require(name in GENERATORS, f"unknown dataset {name!r}; one of {sorted(GENERATORS)}")
    database = GENERATORS[name](num_graphs=num_graphs, seed=seed, **generator_kwargs)
    rng = ensure_rng(seed + 1)
    theta = calibrate_theta(database, distance, quantile=theta_quantile, rng=rng)
    ladder = ladder_for(database, distance, rng=rng)
    return DatasetSpec(name=name, database=database, theta=theta, ladder=ladder)
