#!/usr/bin/env python3
"""Fig. 1(b), literally: representative vs diversity-only selection in a
2-D metric space.

The paper's motivating picture: among the relevant objects, `g3` sits at
the center of a relevant cluster and `g4` is a relevant outlier at the
same distance from the already-chosen `g1`.  A diversity-only model scores
them equally; the representative model prefers the cluster center because
it *covers* its whole cluster.

This example rebuilds that geometry with points in R² (the engines are
metric-space generic — see `repro.metricspace`), runs REP and DIV side by
side, and shows REP picking cluster centers while DIV is indifferent.

Run:  python examples/metric_space_points.py
"""

import numpy as np

from repro.baselines import div_topk
from repro.core import baseline_greedy
from repro.graphs.relevance import WeightedScoreThreshold
from repro.index import NBIndex
from repro.metricspace import vector_database


def make_points(rng):
    """Three relevant clusters of different sizes plus relevant outliers."""
    clusters = [
        (np.array([0.0, 0.0]), 12),   # big cluster
        (np.array([10.0, 0.0]), 6),   # medium cluster
        (np.array([0.0, 10.0]), 4),   # small cluster
    ]
    points = []
    for center, size in clusters:
        points.append(center)  # the exact center, so it's selectable
        points.extend(center + rng.normal(0, 0.5, size=(size - 1, 2)))
    # Relevant outliers — far from everything (the paper's g4).
    points.append(np.array([20.0, 20.0]))
    points.append(np.array([-15.0, 18.0]))
    return np.vstack(points)


def main():
    rng = np.random.default_rng(2)
    points = make_points(rng)
    database, distance = vector_database(points)
    everything_relevant = WeightedScoreThreshold([0.0, 0.0], threshold=-1.0)
    theta = 2.0  # covers one cluster, not two
    k = 3

    rep = baseline_greedy(database, distance, everything_relevant, theta, k)
    div = div_topk(database, distance, everything_relevant, theta, k, 1.0)

    def describe(label, answer, pi):
        print(f"\n{label} (pi={pi:.2f}):")
        for gid in answer:
            x, y = points[gid]
            print(f"  point {gid:>2} at ({x:6.1f}, {y:6.1f})")

    describe("REP top-3", rep.answer, rep.pi)
    describe("DIV(theta) top-3", div.answer, div.pi)

    # The same query through the NB-Index — the index only needs a metric.
    index = NBIndex.build(database, distance, num_vantage_points=6, seed=0)
    indexed = index.query(everything_relevant, theta, k)
    describe("NB-Index top-3", indexed.answer, indexed.pi)

    print("\nREP's picks sit at the three cluster centers (coverage-ordered "
          "by cluster size); the relevant outliers at (20,20) and (-15,18) "
          "are never chosen — they represent only themselves, which is the "
          "paper's argument against diversity-only and covering models.")


if __name__ == "__main__":
    main()
