#!/usr/bin/env python
"""CI guard for the batch kernels: bit-equality and within-run speed ratios.

Two kernels stand in for their serial metric inside ``DistanceEngine``:
``BatchStarEvaluator`` for ``StarDistance`` (2 000 fixed dud pairs) and
the vector kernel of a ``vector_database`` distance
(``MinkowskiMetric.one_to_many``) for its one-pair call (2 000 fixed
pairs of 6-d points, the ``vec_sharded`` shape).  Each is fed in batches
of 1, 2, 64 and 2 000 targets; every value must be ``==`` the serial
value, µs/pair is printed per length, and the guard fails when a batch
path at length 64 is not at least its floor times the serial path, or
when the vector path at length 1 — a one-miss batch, which it hands to
the one-pair call — costs more than ``ONE_PAIR_CEILING`` times it.  Both
sides are timed interleaved in this one process (best of ``ROUNDS``), so
the verdict is a ratio — absolute wall-clock on a shared runner moves by
±15–25 % between runs, a within-run ratio does not.

Run from the repo root: ``PYTHONPATH=src python scripts/kernel_guard.py``.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.datasets import GENERATORS
from repro.engine.starbatch import BatchStarEvaluator
from repro.ged.star import StarDistance
from repro.metricspace import vector_database

PAIRS = 2000
LENGTHS = (1, 2, 64, 2000)
GUARDED_LENGTH = 64
#: Star: 3.3–3.4× measured in ten runs on a 2-core box (the evaluator is
#: over no list, so every call packs its graphs).  Vector: ≈ 13× (0.4
#: against 5 µs/pair).  Each floor keeps a margin for noisy runners.
FLOORS = {"star": 2.5, "vector": 4.0}
#: Vector batch / serial µs per pair at length 1: the one-pair call plus
#: one small array (≈ 1.05× measured), with a margin for noisy runners.
#: The star kernel keeps its batch path at every length and is not held
#: to this.
ONE_PAIR_CEILING = {"vector": 1.15}
ROUNDS = 5


def kernels():
    """``(name, graphs, batch one_to_many, serial metric)`` per kernel."""
    graphs = GENERATORS["dud"](num_graphs=400, seed=11).graphs
    yield "star", graphs, BatchStarEvaluator().one_to_many, StarDistance()
    points = np.random.default_rng(11).normal(size=(400, 6))
    database, distance = vector_database(points)
    yield "vector", database.graphs, distance.one_to_many, distance.__call__


def guard(name, graphs, one_to_many, serial) -> bool:
    rng = np.random.default_rng(21)
    best: dict[tuple[str, int], float] = {}
    for length in LENGTHS:
        batches = [
            (graphs[int(rng.integers(len(graphs)))],
             [graphs[t] for t in rng.integers(0, len(graphs), length)])
            for _ in range(PAIRS // length)
        ]

        def run_batch():
            return [one_to_many(g, hs).tolist() for g, hs in batches]

        def run_serial():
            return [[serial(g, h) for h in hs] for g, hs in batches]

        if run_batch() != run_serial():  # also the untimed warm-up
            print(f"FAIL: {name} batch values differ from serial at length {length}")
            return False
        for _ in range(ROUNDS):
            for side, run in (("batch", run_batch), ("serial", run_serial)):
                started = time.perf_counter()
                run()
                elapsed = time.perf_counter() - started
                key = (side, length)
                best[key] = min(best.get(key, elapsed), elapsed)
        pairs = len(batches) * length
        batch_us = best["batch", length] / pairs * 1e6
        serial_us = best["serial", length] / pairs * 1e6
        print(
            f"{name:6s} length {length:5d}: batch {batch_us:6.1f} us/pair, "
            f"serial {serial_us:6.1f} us/pair, {serial_us / batch_us:4.1f}x "
            f"({pairs} pairs, bit-equal)"
        )
    ceiling = ONE_PAIR_CEILING.get(name)
    one_pair = best["batch", 1] / best["serial", 1]
    if ceiling is not None and one_pair > ceiling:
        print(
            f"FAIL: {name} batch path at length 1 is {one_pair:.2f}x the "
            f"one-pair call, above the {ceiling}x ceiling"
        )
        return False
    speedup = best["serial", GUARDED_LENGTH] / best["batch", GUARDED_LENGTH]
    if speedup < FLOORS[name]:
        print(
            f"FAIL: {name} batch path at length {GUARDED_LENGTH} is "
            f"{speedup:.2f}x the serial path, below the {FLOORS[name]}x floor"
        )
        return False
    print(f"{name} kernel guard ok ({speedup:.1f}x at length {GUARDED_LENGTH})")
    return True


def main() -> int:
    results = [guard(*kernel) for kernel in kernels()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
