"""Mutation benchmark: memtable throughput, query cost vs memtable size,
and online compaction vs the full-rebuild baseline.

The delta layer's pitch is "mutate without rebuilding" — this benchmark
prices it.  For a single-artifact and a 4-shard base it measures:

* **mutation throughput** — inserts (and journaled inserts, which pay an
  fsync each) plus tombstone deletes per second into the memtable;
* **query latency vs memtable size** — the memtable is scanned exactly,
  so every un-compacted insert adds distance work to each query; each
  point is compared against the from-scratch rebuild baseline (build
  time + query time) *and* checked bit-identical to it — a row with
  ``identical: false`` is a correctness bug, not a slow run;
* **compaction** — online ``compact()`` wall-clock at the final memtable
  size (for the sharded base: how many shards were reused), the latency
  the post-compaction query returns to, and the rebuild time it avoided.

Runnable standalone (``python benchmarks/bench_mutations.py``), which
writes ``BENCH_mutations.json`` at the repository root, or under pytest
at smoke size, which writes its document under the test's ``tmp_path``.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.delta import MutableIndex, MutationJournal
from repro.ged.star import StarDistance
from repro.graphs import quartile_relevance
from repro.index.nbindex import NBIndex
from repro.index.pivec import choose_thresholds
from repro.shard import ShardedIndex, build_shards

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_mutations.json"

BUILD = dict(num_vantage_points=10)


def _identical(got, want) -> bool:
    return (
        got.answer == want.answer
        and got.gains == want.gains
        and got.covered == want.covered
    )


def _time_query(index, query_fn, theta, k, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = index.query(query_fn, theta, k)
        best = min(best, time.perf_counter() - started)
    return best, result


def _rebuild_oracle(mutable, distance, seed):
    """From-scratch build over the mutated content — the baseline a
    mutation-free deployment would pay instead of the memtable."""
    snapshot = mutable.database.subset(range(len(mutable.database)))
    for gid in mutable.database.deleted:
        snapshot.mark_deleted(gid)
    started = time.perf_counter()
    oracle = NBIndex.build(snapshot, distance, seed=seed, **BUILD)
    return oracle, time.perf_counter() - started


def _journaled_insert_rate(db, base, distance, seed, tmp, count):
    """Inserts per second when every mutation pays its fsync."""
    live = db.subset(range(base))
    journal = MutationJournal(Path(tmp) / "bench.journal")
    index = NBIndex.build(live, distance, seed=seed, **BUILD)
    mutable = MutableIndex(live, index, distance=distance, journal=journal)
    started = time.perf_counter()
    for gid in range(base, base + count):
        mutable.insert(db[gid], db.features[gid])
    seconds = time.perf_counter() - started
    mutable.close()
    return count / max(seconds, 1e-9)


def mutation_benchmark(
    num_graphs: int = 120,
    base: int = 90,
    seed: int = 13,
    k: int = 8,
    batch: int = 10,
    repeats: int = 3,
    layouts=("single", "sharded"),
):
    from repro.datasets import GENERATORS

    db = GENERATORS["dud"](num_graphs=num_graphs, seed=seed)
    distance = StarDistance()
    # One θ from a slope-proportional spread over the FULL content, so
    # every rebuild point and both layouts answer at it and no row is
    # favored.
    ladder = choose_thresholds(
        db.graphs, distance, count=10, num_pairs=min(1000, num_graphs * 4),
        rng=np.random.default_rng(seed),
    )
    theta = ladder.values[4]
    query_fn = quartile_relevance(db)
    num_batches = (num_graphs - base) // batch

    rows = []
    for layout in layouts:
        with tempfile.TemporaryDirectory() as tmp:
            live = db.subset(range(base))
            build_started = time.perf_counter()
            if layout == "single":
                base_index = NBIndex.build(
                    live, distance, seed=seed, **BUILD
                )
                mutable = MutableIndex(live, base_index, distance=distance)
            else:
                manifest_path = build_shards(
                    live, distance, num_shards=4,
                    out_dir=Path(tmp) / "bundle", seed=seed, **BUILD,
                )
                base_index = ShardedIndex.load(manifest_path, live, distance)
                mutable = MutableIndex(
                    live, base_index, distance=distance,
                    manifest_path=manifest_path,
                )
            base_build_s = time.perf_counter() - build_started

            points = []
            insert_rates = []
            for point in range(num_batches + 1):
                if point:  # batch of inserts + a couple of tombstones
                    start_gid = base + (point - 1) * batch
                    started = time.perf_counter()
                    for gid in range(start_gid, start_gid + batch):
                        mutable.insert(db[gid], db.features[gid])
                    insert_rates.append(
                        batch / max(time.perf_counter() - started, 1e-9)
                    )
                    mutable.delete(2 * point)
                seconds, result = _time_query(
                    mutable, query_fn, theta, k, repeats
                )
                oracle, rebuild_s = _rebuild_oracle(mutable, distance, seed)
                rebuild_q_s, oracle_result = _time_query(
                    oracle, query_fn, theta, k, repeats
                )
                points.append({
                    "memtable": mutable.memtable_size,
                    "tombstones": mutable.tombstones,
                    "query_ms": round(seconds * 1e3, 3),
                    "rebuild_s": round(rebuild_s, 3),
                    "rebuild_query_ms": round(rebuild_q_s * 1e3, 3),
                    "query_slowdown_x": round(
                        seconds / max(rebuild_q_s, 1e-9), 2
                    ),
                    "identical": _identical(result, oracle_result),
                })

            compact_started = time.perf_counter()
            report = mutable.compact()
            compact_s = time.perf_counter() - compact_started
            compacted_q_s, compacted = _time_query(
                mutable, query_fn, theta, k, repeats
            )
            final_oracle, _ = _rebuild_oracle(mutable, distance, seed)
            _, final_expected = _time_query(
                final_oracle, query_fn, theta, k, 1
            )

            rows.append({
                "layout": layout,
                "base_graphs": base,
                "base_build_s": round(base_build_s, 3),
                "insert_per_s": round(float(np.mean(insert_rates)), 1),
                "journaled_insert_per_s": round(_journaled_insert_rate(
                    db, base, distance, seed, tmp, batch
                ), 1),
                "points": points,
                "compact_s": round(compact_s, 3),
                "compact_absorbed": report["absorbed"],
                "compact_rebuilt_shards": report["rebuilt_shards"],
                "compact_reused_shards": report["reused_shards"],
                "post_compact_query_ms": round(compacted_q_s * 1e3, 3),
                "post_compact_identical": _identical(
                    compacted, final_expected
                ),
            })
            mutable.close()

    document = {
        "benchmark": "mutations",
        "dataset": f"dud n={num_graphs} seed={seed}",
        "k": k,
        "theta": round(float(theta), 3),
        "ladder": [round(float(v), 3) for v in ladder.values],
        "rows": rows,
    }
    return document


def _save(document, path: Path = _JSON_PATH) -> None:
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path}")


def _print_summary(document):
    for row in document["rows"]:
        print(f"{row['layout']}: base build {row['base_build_s']:.2f}s, "
              f"{row['insert_per_s']:.0f} inserts/s "
              f"({row['journaled_insert_per_s']:.0f} journaled), "
              f"compact {row['compact_s']:.2f}s "
              f"(reused {row['compact_reused_shards']} shards)")
        header = (f"  {'memtable':>9}{'tomb':>6}{'q ms':>9}"
                  f"{'rebuild s':>11}{'rebuild q ms':>14}{'slow x':>8}"
                  f"{'ok':>4}")
        print(header)
        for p in row["points"]:
            print(f"  {p['memtable']:>9}{p['tombstones']:>6}"
                  f"{p['query_ms']:>9.1f}{p['rebuild_s']:>11.2f}"
                  f"{p['rebuild_query_ms']:>14.1f}"
                  f"{p['query_slowdown_x']:>8.2f}"
                  f"{'y' if p['identical'] else 'N':>4}")


def test_mutations(tmp_path):
    document = mutation_benchmark(
        num_graphs=48, base=36, batch=6, repeats=2
    )
    _save(document, tmp_path / _JSON_PATH.name)
    _print_summary(document)
    for row in document["rows"]:
        assert row["post_compact_identical"], row
        for p in row["points"]:
            assert p["identical"], (row["layout"], p)


if __name__ == "__main__":
    outcome = mutation_benchmark()
    _save(outcome)
    _print_summary(outcome)
    bad = [
        (row["layout"], p["memtable"])
        for row in outcome["rows"]
        for p in row["points"]
        if not p["identical"]
    ] + [
        (row["layout"], "post-compact")
        for row in outcome["rows"]
        if not row["post_compact_identical"]
    ]
    if bad:
        raise SystemExit(f"mutable answers diverged from rebuild: {bad}")
