#!/usr/bin/env python
"""CI guard for the build's memory: peak resident growth per graph.

Fails unless ``NBIndex.build`` over the n = 5 000 dud database
(``dud_like(5000, seed=11)``, ``StarDistance()``, 20 vantage points)

1. raises this process's peak resident set (``VmHWM``) by at most
   ``MAX_BYTES_PER_GRAPH`` per graph over the resident set it had just
   before the build — the process is a fresh interpreter that has
   imported the package and generated the database, nothing else;
2. leaves the engine's pair table empty.

The embedding's ``n · |V|`` distances are the index, not pair-cache
entries: ``DistanceEngine.columns`` reads the cache and stores nothing.
On a 2-CPU x86 box, where the vantage columns fan out to a forked child,
a build that also cached the block (100 802 pairs) read 4 640–4 880 B per
graph, one that cached only a 1 000-pair threshold-ladder sample ~3 470,
and one that caches nothing reads ~3 160.  On one CPU the block is
evaluated inline and the first two read ~4 040 and ~3 850: there only
check 2 tells them apart.

Run from the repo root: ``PYTHONPATH=src python scripts/build_memory_guard.py``.
Needs ``/proc/self/status`` (Linux); elsewhere it says so and passes.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

from repro import NBIndex, StarDistance
from repro.datasets.dud import dud_like

DATABASE = 5000
VANTAGE_POINTS = 20
MAX_BYTES_PER_GRAPH = 4200
STATUS = Path("/proc/self/status")


def memory() -> dict[str, int]:
    """``VmRSS`` and ``VmHWM`` of this process, in bytes."""
    fields = {}
    for line in STATUS.read_text().splitlines():
        name, _, value = line.partition(":")
        if name in ("VmRSS", "VmHWM"):
            fields[name] = int(value.split()[0]) * 1024
    return fields


def main() -> int:
    if not STATUS.exists():
        print("build memory guard skipped: no /proc/self/status")
        return 0
    database = dud_like(DATABASE, seed=11)
    gc.collect()
    before = memory()
    started = time.perf_counter()
    index = NBIndex.build(
        database, StarDistance(), num_vantage_points=VANTAGE_POINTS, seed=11
    )
    seconds = time.perf_counter() - started
    after = memory()
    growth = (after["VmHWM"] - before["VmRSS"]) / len(database)
    print(
        f"NBIndex.build(dud_like({DATABASE}, seed=11), |V|={VANTAGE_POINTS}): "
        f"{seconds:.2f} s, VmHWM {after['VmHWM'] / 2**20:.1f} MB, "
        f"{growth:.0f} B per graph over the pre-build VmRSS "
        f"{before['VmRSS'] / 2**20:.1f} MB; pair table "
        f"{len(index.engine._cache)} pairs"
    )
    if growth > MAX_BYTES_PER_GRAPH:
        print(f"FAIL: above {MAX_BYTES_PER_GRAPH} B per graph")
        return 1
    if len(index.engine._cache):
        print("FAIL: the build left pairs in the engine's pair table")
        return 1
    print(f"build memory guard ok ({growth:.0f} B per graph)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
