#!/usr/bin/env python
"""CI guard for the build fan-out: a bundle builds faster fanned out.

Builds the dud n = 2 000, S = 2 bundle twice per round: *inline* (a second
thread held alive, which is how ``repro.utils.fanout.fan_out`` keeps a serving
process's builds in one process) and *fanned out* (forked children for the
frame's vantage columns, ``DistanceEngine.columns`` — the one build step
that fans out; writing a shard costs no distance).  With two or more
usable CPUs it fails when the fanned-out build is not at least
``MIN_SPEEDUP`` times faster (best of ``ROUNDS``, interleaved — a
within-run ratio, not an absolute time).  That both shapes build the same
bundle with the same counters is ``tests/test_fanout.py``'s job.

Run from the repo root: ``PYTHONPATH=src python scripts/build_fanout_guard.py``.
"""

from __future__ import annotations

import sys
import tempfile
import threading
import time
from pathlib import Path

from repro import StarDistance, build_shards
from repro.datasets import GENERATORS
from repro.utils import fanout

NUM_GRAPHS = 2000
#: ``build_shards``' default vantage count: the frame is NUM_GRAPHS ×
#: VANTAGE star distances, dealt out by column.
VANTAGE = 20
SHARDS = 2
SEED = 11
MIN_SPEEDUP = 1.2
ROUNDS = 3


def build(database, out_dir: Path, inline: bool) -> float:
    """Seconds to build one bundle."""
    release = threading.Event()
    holder = threading.Thread(target=release.wait)
    if inline:
        holder.start()
    try:
        started = time.perf_counter()
        build_shards(
            database, StarDistance(), num_shards=SHARDS, out_dir=out_dir,
            seed=SEED,
        )
        return time.perf_counter() - started
    finally:
        release.set()
        if inline:
            holder.join()


def main() -> int:
    database = GENERATORS["dud"](num_graphs=NUM_GRAPHS, seed=SEED)
    workers = fanout.workers(VANTAGE, NUM_GRAPHS * VANTAGE)
    best: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for round_ in range(ROUNDS):
            for name in ("inline", "fanned"):
                seconds = build(
                    database, Path(tmp) / f"{name}-{round_}", name == "inline"
                )
                best[name] = min(best.get(name, seconds), seconds)
    speedup = best["inline"] / best["fanned"]
    print(
        f"dud n={NUM_GRAPHS} S={SHARDS}: inline {best['inline']:.2f} s, "
        f"fanned out {best['fanned']:.2f} s on {workers} process(es), "
        f"{speedup:.2f}x"
    )
    if workers >= 2 and speedup < MIN_SPEEDUP:
        print(f"FAIL: fan-out speedup {speedup:.2f}x is below {MIN_SPEEDUP}x")
        return 1
    print("build fan-out guard ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
