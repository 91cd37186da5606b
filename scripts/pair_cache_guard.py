#!/usr/bin/env python
"""CI guard for the engine's pair cache: a dict reference, bytes per pair
and a within-run speed ratio.

Fills a :class:`~repro.engine.paircache.PairTable` with 196 764 pairs over
5 000 graph ids — the size the n = 5 000 dud build's cache reached while
the build still stored its NB-Tree scans and vantage block — and a dict
of ``(id, id)`` tuple keys with the same pairs, then fails unless:

1. every lookup — ``scan`` and ``values`` — is ``==`` the dict's (rows of
   1, 2, 64 and 2 000 targets, about half of each row cached), misses
   included;
2. the table holds at most ``MAX_BYTES_PER_PAIR`` bytes per pair;
3. a warm engine lookup — ``DistanceEngine.one_to_many`` over a row whose
   pairs are all cached, batches of 2 and 64 targets — costs at most
   ``MAX_SLOWDOWN`` times the same call on an engine whose cache is the
   dict, with the dict-era scan (tuple keys built per call, one ``get``
   each).

Both engines are timed interleaved in this one process (best of
``ROUNDS``), so the verdict is a ratio; absolute wall-clock on a shared
runner moves by ±15–25 % between runs.  The table-only ratio (a row scan
against the dict's ``get`` loop, keys built on both sides) is printed too.

Run from the repo root: ``PYTHONPATH=src python scripts/pair_cache_guard.py``.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro import obs
from repro.engine import DistanceEngine
from repro.engine.paircache import PairTable, key_halves, pair_key
from repro.graphs import LabeledGraph

GRAPHS = 5000
PAIRS = 196_764
LENGTHS = (1, 2, 64, 2000)
TIMED_LENGTHS = (2, 64)
MAX_BYTES_PER_PAIR = 27
MAX_SLOWDOWN = 1.5
ROUNDS = 7
LOOKUPS = 20_000


class DictEngine(DistanceEngine):
    """The engine's lookup as it was before the pair table: a dict of
    ``(id, id)`` tuple keys, the keys of a row built per call."""

    def one_to_many(self, source, targets):
        graphs = self._resolve_many(targets)
        out = np.empty(len(graphs), dtype=np.float64)
        source = self._resolve(source)
        a = source.graph_id if source.graph_id is not None else -id(source)
        halves = [g.graph_id if g.graph_id is not None else -id(g) for g in graphs]
        hits, misses = 0, []
        with self._cache_lock:
            cache = self.dict_cache
            for position, key in enumerate(
                [(a, b) if a <= b else (b, a) for b in halves]
            ):
                value = cache.get(key)
                if value is not None:
                    hits += 1
                    out[position] = value
                else:
                    misses.append(position)
            self.cache_hits += hits
        assert not misses, "the timed rows are fully cached"
        obs.counter("engine.cache_hits", hits)
        return out


def dict_scan(cache: dict, a: int, others, out) -> list[int]:
    misses = []
    for position, key in enumerate([(a, b) if a <= b else (b, a) for b in others]):
        value = cache.get(key)
        if value is None:
            misses.append(position)
        else:
            out[position] = value
    return misses


def main() -> int:
    rng = np.random.default_rng(28)
    graphs = [LabeledGraph(["C"], graph_id=i) for i in range(GRAPHS)]
    pairs = rng.integers(0, GRAPHS, (PAIRS * 3 // 2, 2))
    keys = list(dict.fromkeys(pair_key(a, b) for a, b in pairs.tolist()))[:PAIRS]
    values = rng.random(PAIRS).tolist()
    table = PairTable()
    for start in range(0, PAIRS, 5000):  # in batches, as a build writes back
        table.put(keys[start:start + 5000], values[start:start + 5000])
    reference = {key_halves(key): value for key, value in zip(keys, values)}

    # 1. lookups bit-equal to the dict, half of each row cached
    partners: dict[int, list[int]] = {}
    for lo, hi in reference:
        partners.setdefault(lo, []).append(hi)
        partners.setdefault(hi, []).append(lo)
    sources = [a for a, row in partners.items() if len(row) >= 64]
    for length in LENGTHS:
        for _ in range(max(1, 4000 // length)):
            a = sources[int(rng.integers(len(sources)))]
            cached = rng.choice(partners[a], length)
            others = np.where(
                rng.random(length) < 0.5, cached, rng.integers(0, GRAPHS, length)
            ).tolist()
            got, want = np.full(length, np.nan), np.full(length, np.nan)
            misses, _ = table.scan(a, others, got)
            if misses != dict_scan(reference, a, others, want) or not (
                np.array_equal(got, want, equal_nan=True)
                and np.array_equal(table.values(a, others), want, equal_nan=True)
            ):
                print(f"FAIL: table lookups differ from the dict at length {length}")
                return 1
    print(f"lookups == dict at lengths {', '.join(map(str, LENGTHS))}")

    # 2. bytes per pair
    per_pair = table.nbytes / len(table)
    print(f"{len(table)} pairs in {table.nbytes} B: {per_pair:.1f} B/pair")
    if per_pair > MAX_BYTES_PER_PAIR:
        print(f"FAIL: above {MAX_BYTES_PER_PAIR} B per pair")
        return 1

    # 3. warm engine lookups, table vs dict, interleaved
    engine = DistanceEngine(lambda a, b: 0.0, graphs=graphs)
    engine._cache = table
    dict_engine = DictEngine(lambda a, b: 0.0, graphs=graphs)
    dict_engine.dict_cache = reference
    worst = 0.0
    for length in TIMED_LENGTHS:
        rows = []
        for _ in range(LOOKUPS // length):
            a = sources[int(rng.integers(len(sources)))]
            rows.append((a, np.asarray(rng.choice(partners[a], length))))
        halves_rows = [(a, others.tolist()) for a, others in rows]
        out = np.empty(length)
        runs = {
            "table": lambda: [engine.one_to_many(a, t) for a, t in rows],
            "dict": lambda: [dict_engine.one_to_many(a, t) for a, t in rows],
            "table scan": lambda: [table.scan(a, o, out) for a, o in halves_rows],
            "dict scan": lambda: [dict_scan(reference, a, o, out) for a, o in halves_rows],
        }
        best: dict[str, float] = {}
        for _ in range(ROUNDS):
            for name, run in runs.items():
                started = time.perf_counter()
                run()
                elapsed = time.perf_counter() - started
                best[name] = min(best.get(name, elapsed), elapsed)
        ratio = best["table"] / best["dict"]
        worst = max(worst, ratio)
        per = {name: seconds / (len(rows) * length) * 1e9 for name, seconds in best.items()}
        print(
            f"length {length:3d}: one_to_many table {per['table']:5.0f} ns/pair, "
            f"dict {per['dict']:5.0f} ns/pair, {ratio:4.2f}x; "
            f"scan alone {best['table scan'] / best['dict scan']:4.2f}x"
        )
    if worst > MAX_SLOWDOWN:
        print(f"FAIL: warm lookups {worst:.2f}x the dict's, above {MAX_SLOWDOWN}x")
        return 1
    print(f"pair cache guard ok ({per_pair:.1f} B/pair, lookups {worst:.2f}x the dict's)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
