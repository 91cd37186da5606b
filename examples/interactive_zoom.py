#!/usr/bin/env python3
"""Interactive θ refinement — the paper's "zoom level" workflow (Sec. 7).

The right θ is rarely known up front.  Like adjusting map zoom, an analyst
re-runs the query at nearby thresholds and watches the answer coarsen
(large θ: few exemplars cover everything) or sharpen (small θ: exemplars
for fine structural families).  The NB-Index makes each refinement cheap:
the initialization phase is reused, only the search re-runs.

Run:  python examples/interactive_zoom.py
"""

from repro import NBIndex, RefinementSession, StarDistance, quartile_relevance
from repro.datasets import calibrate_theta, amazon_like


def main():
    database = amazon_like(num_graphs=250, seed=5)
    distance = StarDistance()
    theta0 = calibrate_theta(database, distance, quantile=0.05, rng=5)
    print(f"{len(database)} co-purchase neighborhoods; starting theta={theta0:.0f}")

    index = NBIndex.build(
        database, distance, num_vantage_points=12, seed=5
    )
    session = RefinementSession(index, quartile_relevance(database), k=8)

    # Initial query, then a plausible analyst trajectory: zoom out twice
    # looking for coverage, then zoom back in for finer families.
    session.query(theta0)
    session.zoom_out(0.2)
    session.zoom_out(0.2)
    session.zoom_in(0.3)
    session.zoom_in(0.1)

    print(f"\n{'step':<6}{'theta':>10}{'pi(A)':>10}{'CR':>8}{'seconds':>10}")
    for step_number, step in enumerate(session.history):
        print(f"{step_number:<6}{step.theta:>10.1f}{step.result.pi:>10.3f}"
              f"{step.result.compression_ratio:>8.1f}{step.seconds:>10.3f}")

    first = session.history[0].seconds
    refinements = [s.seconds for s in session.history[1:]]
    print(f"\ninitial query: {first:.3f}s; refinements avg: "
          f"{sum(refinements) / len(refinements):.3f}s")
    print("Refinements reuse the session's initialization phase (relevant "
          "set, pi-hat columns, distance cache), so zooming is much cheaper "
          "than the first query — the paper's Fig. 6(i) behaviour.")


if __name__ == "__main__":
    main()
