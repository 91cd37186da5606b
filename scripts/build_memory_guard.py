#!/usr/bin/env python
"""CI guard for the build's memory: peak resident growth per graph.

Fails unless ``NBIndex.build`` over the n = 5 000 dud database
(``dud_like(5000, seed=11)``, ``StarDistance()``, 20 vantage points)

1. raises this process's peak resident set (``VmHWM``) by at most
   ``MAX_BYTES_PER_GRAPH`` per graph over the resident set it had just
   before the build (``MAX_INLINE_BYTES_PER_GRAPH`` when the build cannot
   fan out) — the process is a fresh interpreter that has imported the
   package and generated the database, nothing else;
2. leaves the engine's pair table empty.

The embedding's ``n · |V|`` distances are the index, not pair-cache
entries: ``DistanceEngine.columns`` reads the cache and stores nothing.
It deals the frame by target block: on a 2-CPU x86 box this process
fills the database's star columns (~200 B a graph), forks, and measures
the first half of the database against every vantage column while a
child, which inherits the columns, measures the second.  There a build
reads ~1 360–1 630 B per graph; with a star-profile object per graph in each
process (≈ 1 425 B, the parent's half plus the vantage graphs) and the
kernel's overlap blocks materialized 256 targets at a time it read
~2 440, dealt by vantage column ~3 200, and one that also cached the
block (100 802 pairs) 4 640–4 880.  On one CPU the frame is one block
evaluated inline and reads ~1 530–1 960 (~3 220 with profile objects), so
there the inline bound applies, and a cached block fails check 2 as well
as check 1.

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
from repro.utils import fanout

DATABASE = 5000
VANTAGE_POINTS = 20
MAX_BYTES_PER_GRAPH = 2000
MAX_INLINE_BYTES_PER_GRAPH = 2400
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
    processes = fanout.workers(DATABASE, DATABASE * VANTAGE_POINTS)
    limit = MAX_BYTES_PER_GRAPH if processes > 1 else MAX_INLINE_BYTES_PER_GRAPH
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
        f"{before['VmRSS'] / 2**20:.1f} MB on {processes} process(es); "
        f"pair table {len(index.engine._cache)} pairs"
    )
    if growth > limit:
        print(f"FAIL: above {limit} B per graph")
        return 1
    if len(index.engine._cache):
        print("FAIL: the build left pairs in the engine's pair table")
        return 1
    print(f"build memory guard ok ({growth:.0f} B per graph)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
