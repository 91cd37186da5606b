#!/usr/bin/env python3
"""Interactive θ refinement — the paper's "zoom level" workflow (Sec. 7).

The right θ is rarely known up front.  Like adjusting map zoom, an analyst
re-runs the query at nearby thresholds and watches the answer coarsen
(large θ: few exemplars cover everything) or sharpen (small θ: exemplars
for fine structural families).  The NB-Index makes each refinement cheap:
one ``index.session(q)`` keeps the initialization phase, and each θ on
the trajectory re-runs only the search.

Run:  python examples/interactive_zoom.py
"""

import time

from repro import NBIndex, StarDistance, quartile_relevance
from repro.datasets import calibrate_theta, amazon_like


def main():
    database = amazon_like(num_graphs=250, seed=5)
    distance = StarDistance()
    theta0 = calibrate_theta(database, distance, quantile=0.05, rng=5)
    print(f"{len(database)} co-purchase neighborhoods; starting theta={theta0:.0f}")

    index = NBIndex.build(
        database, distance, num_vantage_points=12, seed=5
    )
    session = index.session(quartile_relevance(database))

    # A plausible analyst trajectory: zoom out twice (+20 % each) looking
    # for coverage, then back in (−30 %, −10 %) for finer families.
    trajectory = [theta0]
    for factor in (1.2, 1.2, 0.7, 0.9):
        trajectory.append(trajectory[-1] * factor)

    print(f"\n{'step':<6}{'theta':>10}{'pi(A)':>10}{'CR':>8}{'seconds':>10}")
    seconds = []
    for step_number, theta in enumerate(trajectory):
        started = time.perf_counter()
        result = session.query(theta, 8)
        seconds.append(time.perf_counter() - started)
        print(f"{step_number:<6}{theta:>10.1f}{result.pi:>10.3f}"
              f"{result.compression_ratio:>8.1f}{seconds[-1]:>10.3f}")

    refinements = seconds[1:]
    print(f"\ninitial query: {seconds[0]:.3f}s; refinements avg: "
          f"{sum(refinements) / len(refinements):.3f}s")
    print("Refinements reuse the session's initialization phase (relevant "
          "set, pi-hat columns, distance cache), so zooming is much cheaper "
          "than the first query — the paper's Fig. 6(i) behaviour.")


if __name__ == "__main__":
    main()
