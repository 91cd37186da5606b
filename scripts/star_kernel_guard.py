#!/usr/bin/env python
"""CI guard for the star kernel: bit-equality and a within-run speed ratio.

Sends 2 000 fixed dud pairs through ``BatchStarEvaluator`` in batches of
1, 2, 64 and 2 000 targets and through the serial ``StarDistance``,
asserts every value is ``==``, prints µs/pair per length, and fails if the
batch path at length 64 is not at least ``MIN_SPEEDUP`` times the serial
path.  Both sides are timed interleaved in this one process (best of
``ROUNDS``), so the verdict is a ratio — absolute wall-clock on a shared
runner moves by ±15–25 % between runs, a within-run ratio does not.

Run from the repo root: ``PYTHONPATH=src python scripts/star_kernel_guard.py``.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.datasets import GENERATORS
from repro.engine.starbatch import BatchStarEvaluator
from repro.ged.star import StarDistance

PAIRS = 2000
LENGTHS = (1, 2, 64, 2000)
GUARDED_LENGTH = 64
MIN_SPEEDUP = 2.0
ROUNDS = 5


def main() -> int:
    graphs = GENERATORS["dud"](num_graphs=400, seed=11).graphs
    rng = np.random.default_rng(21)
    serial = StarDistance()
    evaluator = BatchStarEvaluator()
    best: dict[tuple[str, int], float] = {}
    for length in LENGTHS:
        batches = [
            (graphs[int(rng.integers(len(graphs)))],
             [graphs[t] for t in rng.integers(0, len(graphs), length)])
            for _ in range(PAIRS // length)
        ]

        def run_batch():
            return [evaluator.one_to_many(g, hs).tolist() for g, hs in batches]

        def run_serial():
            return [[serial(g, h) for h in hs] for g, hs in batches]

        if run_batch() != run_serial():  # also the untimed warm-up
            print(f"FAIL: batch values differ from serial at length {length}")
            return 1
        for _ in range(ROUNDS):
            for name, run in (("batch", run_batch), ("serial", run_serial)):
                started = time.perf_counter()
                run()
                elapsed = time.perf_counter() - started
                key = (name, length)
                best[key] = min(best.get(key, elapsed), elapsed)
        pairs = len(batches) * length
        batch_us = best["batch", length] / pairs * 1e6
        serial_us = best["serial", length] / pairs * 1e6
        print(
            f"length {length:5d}: batch {batch_us:6.1f} us/pair, "
            f"serial {serial_us:6.1f} us/pair, {serial_us / batch_us:4.1f}x "
            f"({pairs} pairs, bit-equal)"
        )
    speedup = best["serial", GUARDED_LENGTH] / best["batch", GUARDED_LENGTH]
    if speedup < MIN_SPEEDUP:
        print(
            f"FAIL: batch path at length {GUARDED_LENGTH} is {speedup:.2f}x "
            f"the serial path, below the {MIN_SPEEDUP}x floor"
        )
        return 1
    print(f"star kernel guard ok ({speedup:.1f}x at length {GUARDED_LENGTH})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
