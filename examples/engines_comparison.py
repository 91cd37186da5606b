#!/usr/bin/env python3
"""Engine comparison: one query, every algorithm in the repository.

Runs the same top-k representative workload through the NB-Index,
Algorithm 1 (plain, C-tree-backed and M-tree-backed), the lazy greedy,
the distance-matrix oracle, DisC, DIV(θ)/DIV(2θ) and traditional top-k,
reporting wall time, edit-distance work, and answer quality side by side —
a miniature of the paper's whole evaluation section.

Run:  python examples/engines_comparison.py
"""

import time

from repro import NBIndex, StarDistance, baseline_greedy, lazy_greedy, quartile_relevance
from repro.analysis import evaluate_answers
from repro.baselines import (
    CTree,
    DistanceMatrixOracle,
    MTree,
    disc_greedy,
    div_topk,
    traditional_top_k,
)
from repro.datasets import calibrate_theta, dud_like
from repro.ged import CountingDistance

K = 10


def timed(label, fn):
    started = time.perf_counter()
    result = fn()
    return label, result, time.perf_counter() - started


def main():
    database = dud_like(num_graphs=300, seed=13)
    distance = StarDistance()
    theta = calibrate_theta(database, distance, quantile=0.05, rng=13)
    q = quartile_relevance(database)
    print(f"n={len(database)}, relevant={len(database.relevant_indices(q))}, "
          f"theta={theta:.1f}, k={K}\n")

    print("building indexes offline...")
    index = NBIndex.build(database, distance, num_vantage_points=12, seed=13)
    ctree = CTree(database.graphs, distance, capacity=16, seed=13)
    mtree = MTree(database.graphs, distance, capacity=16, seed=13)
    oracle = DistanceMatrixOracle(database, distance)
    print(f"  NB-Index: {index.build_seconds:.1f}s; "
          f"distance matrix: {oracle.build_seconds:.1f}s\n")

    runs = [
        timed("NB-Index", lambda: index.query(q, theta, K)),
        timed("greedy (plain)", lambda: baseline_greedy(
            database, distance, q, theta, K)),
        timed("greedy (lazy)", lambda: lazy_greedy(
            database, distance, q, theta, K)),
        timed("greedy + C-tree", lambda: baseline_greedy(
            database, distance, q, theta, K, range_query=ctree.range_query)),
        timed("greedy + M-tree", lambda: baseline_greedy(
            database, distance, q, theta, K, range_query=mtree.range_query)),
        timed("distance matrix", lambda: oracle.greedy(q, theta, K)),
        timed("DisC (stop at k)", lambda: disc_greedy(
            database, distance, q, theta, range_query=mtree.range_query,
            stop_at_k=K)),
        timed("DIV(theta)", lambda: div_topk(
            database, distance, q, theta, K, 1.0,
            range_query=ctree.range_query)),
        timed("DIV(2theta)", lambda: div_topk(
            database, distance, q, theta, K, 2.0,
            range_query=ctree.range_query)),
    ]
    topk_answer = traditional_top_k(database, q, K)

    answers = {label: r.answer for label, r, _ in runs}
    answers["traditional top-k"] = topk_answer
    quality = evaluate_answers(database, distance, q, theta, answers)

    print(f"{'engine':<20}{'seconds':>9}{'pi(A)':>8}{'CR':>7}{'|A|':>5}")
    for label, result, seconds in runs:
        metrics = quality[label]
        print(f"{label:<20}{seconds:>9.3f}{metrics['pi']:>8.3f}"
              f"{metrics['compression_ratio']:>7.1f}"
              f"{metrics['answer_size']:>5}")
    metrics = quality["traditional top-k"]
    print(f"{'traditional top-k':<20}{'-':>9}{metrics['pi']:>8.3f}"
          f"{metrics['compression_ratio']:>7.1f}{metrics['answer_size']:>5}")


if __name__ == "__main__":
    main()
