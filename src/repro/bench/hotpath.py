"""Hot-path benchmark driver: packed-bitset coverage vs set-based reference.

Measures what the :mod:`repro.bitset` kernel actually buys on the greedy
coverage hot path, in three layers:

* **end-to-end** — Algorithm 1 over a synthetic vector-metric database
  where θ-neighborhoods come from one vectorized range query, so the
  timed difference is coverage bookkeeping (the paper's per-round argmax
  over marginal gains), not distance evaluation.  The pre-change set
  implementation (:mod:`repro.core.setgreedy`) is run against the bitset
  engine on identical inputs; answers must match bit-for-bit.
* **engine identity** — the NB-Index session (S=1) and the sharded
  coordinator (S=4) answer the same (θ, k) query; each row records
  whether ids, gains, order and coverage equal the reference.  A row with
  ``identical: false`` is a correctness bug, not a slow run.
* **per-kernel microbenchmarks** — median latency of the individual
  bitset primitives at the benchmark's largest universe, printed for the
  reader; the regression-guarded number is the end-to-end benchmark's
  ``bitset.uncovered_counts_ms`` row (``benchmarks/e2e/README.md``).

Run by the ``repro bench-hotpath`` CLI subcommand (small-n correctness
smoke in CI, timing-free; ``--sizes``/``--json`` for a full sweep).
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bitset import BitsetDelta, kernel
from repro.core import baseline_greedy, baseline_greedy_sets
from repro.graphs.relevance import quartile_relevance
from repro.index.nbindex import NBIndex
from repro.index.pivec import ThresholdLadder
from repro.metricspace import vector_database

_EPS = 1e-9

#: Ladder rung (as a quantile of sampled pairwise distances) used as θ.
_THETA_QUANTILE = 0.2
#: All rungs of the shared ladder, as distance quantiles.
_LADDER_QUANTILES = (0.02, 0.05, 0.08, 0.12, 0.2, 0.35, 0.5)


def make_instance(n: int, dims: int = 6, seed: int = 7):
    """One synthetic hot-path instance: vector database, relevance rule,
    shared threshold ladder and the benchmark θ (a ladder rung).

    The metric is Euclidean over random normal points, evaluated through
    the same ``PayloadDistance`` adapter every engine uses; the range
    query below reproduces it with identical float arithmetic, so all
    engines see literally the same neighborhoods.
    """
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dims))
    db, dist = vector_database(points)
    query_fn = quartile_relevance(db, quantile=0.5)

    pairs = rng.integers(0, n, size=(min(4000, n * 4), 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    sample = (
        ((points[pairs[:, 0]] - points[pairs[:, 1]]) ** 2).sum(axis=1)
        ** (1.0 / 2.0)
    )
    rungs = sorted(float(np.quantile(sample, q)) for q in _LADDER_QUANTILES)
    ladder = ThresholdLadder(rungs)
    theta = float(np.quantile(sample, _THETA_QUANTILE))
    theta = min(ladder.values, key=lambda v: abs(v - theta))

    def range_query(gid: int, radius: float):
        # Same formula and reduction order as MinkowskiMetric(p=2) on one
        # pair, so membership at the theta+eps boundary agrees bitwise
        # with the engines' per-pair verification.
        distances = (
            ((points - points[int(gid)]) ** 2).sum(axis=1) ** (1.0 / 2.0)
        )
        return np.flatnonzero(distances <= radius + _EPS)

    return db, dist, query_fn, ladder, theta, range_query


def _identical(got, want) -> bool:
    return (
        got.answer == want.answer
        and got.gains == want.gains
        and got.covered == want.covered
    )


def _best_of(repeats: int, fn):
    """Min-of-repeats wall time plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def kernel_microbench(nbits: int, rows: int = 1024, repeats: int = 7, seed: int = 3):
    """Median latency (ms) of each bitset primitive at this universe size."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((rows, kernel.num_words(nbits)), dtype=np.uint64)
    for r in range(rows):
        positions = rng.choice(nbits, size=max(1, nbits // 20), replace=False)
        matrix[r] = kernel.from_positions(positions, nbits)
    covered = kernel.from_positions(
        rng.choice(nbits, size=nbits // 3, replace=False), nbits
    )
    row = matrix[0].copy()
    positions = np.sort(rng.choice(nbits, size=nbits // 10, replace=False))
    delta = BitsetDelta.from_words(kernel.andnot(matrix[1], covered), nbits)

    cases = {
        "popcount_rows": lambda: kernel.popcount_rows(matrix),
        "uncovered_counts": lambda: kernel.uncovered_counts(matrix, covered),
        "uncovered_count": lambda: kernel.uncovered_count(row, covered),
        "union_into": lambda: kernel.union_into(row.copy(), covered),
        "andnot": lambda: kernel.andnot(row, covered),
        "from_positions": lambda: kernel.from_positions(positions, nbits),
        "to_positions": lambda: kernel.to_positions(covered),
        "test_positions": lambda: kernel.test_positions(covered, positions),
        "delta_intersection_count": lambda: delta.intersection_count(row),
    }
    out = {}
    for name, fn in cases.items():
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - started) * 1e3)
        out[name] = round(statistics.median(samples), 6)
    out["nbits"] = nbits
    out["rows"] = rows
    return out


def run_hotpath(
    sizes=(1000, 2500, 5000, 8000),
    k: int = 48,
    seed: int = 7,
    repeats: int = 3,
    shard_count: int = 4,
    include_engines: bool = True,
    index_build=None,
) -> dict:
    """Run the sweep; returns the benchmark document (no file I/O here)."""
    if index_build is None:
        index_build = dict(num_vantage_points=8, branching=16)
    rows = []
    for n in sizes:
        db, dist, query_fn, ladder, theta, range_query = make_instance(
            n, seed=seed
        )
        set_s, reference = _best_of(
            repeats,
            lambda: baseline_greedy_sets(
                db, dist, query_fn, theta, k, range_query=range_query
            ),
        )
        bitset_s, got = _best_of(
            repeats,
            lambda: baseline_greedy(
                db, dist, query_fn, theta, k, range_query=range_query
            ),
        )
        row = {
            "n": int(n),
            "num_relevant": reference.num_relevant,
            "theta": round(theta, 4),
            "k": k,
            "answer_size": len(reference.answer),
            "set_query_s": round(set_s, 4),
            "bitset_query_s": round(bitset_s, 4),
            "speedup": round(set_s / max(bitset_s, 1e-9), 2),
            "identical": _identical(got, reference),
        }
        if include_engines:
            row["engines"] = _engine_rows(
                db, dist, query_fn, ladder, theta, k, reference,
                shard_count, seed, repeats, index_build,
            )
        rows.append(row)

    largest = max(int(r["num_relevant"]) for r in rows)
    return {
        "benchmark": "bitset_hotpath",
        "dataset": f"gaussian vectors, sizes={list(int(s) for s in sizes)} seed={seed}",
        "k": k,
        "shard_count": shard_count,
        "rows": rows,
        "kernels": kernel_microbench(max(largest, 64)),
    }


def _engine_rows(
    db, dist, query_fn, ladder, theta, k, reference,
    shard_count, seed, repeats, index_build,
):
    """NB-Index (S=1) and sharded (S=S) identity + latency rows."""
    from repro.shard import ShardedIndex, build_shards

    index = NBIndex.build(db, dist, thresholds=ladder, seed=seed, **index_build)
    session = index.session(query_fn)
    single_s, single = _best_of(repeats, lambda: session.query(theta, k))
    engines = [{
        "shards": 1,
        "query_s": round(single_s, 4),
        "identical": _identical(single, reference),
    }]

    with tempfile.TemporaryDirectory() as out_dir:
        manifest = build_shards(
            db, dist, num_shards=shard_count, out_dir=out_dir,
            thresholds=ladder, seed=seed, **index_build,
        )
        sharded = ShardedIndex.load(manifest, db, dist)
        sharded_s, got = _best_of(
            repeats, lambda: sharded.query(query_fn, theta, k)
        )
        engines.append({
            "shards": shard_count,
            "query_s": round(sharded_s, 4),
            "identical": _identical(got, reference),
            "broadcast_words": got.stats.coordinator["broadcast_words"],
        })
    return engines


def check_document(document: dict) -> list[str]:
    """Identity violations in a benchmark document (empty = all good)."""
    problems = []
    for row in document["rows"]:
        if not row["identical"]:
            problems.append(f"n={row['n']}: bitset greedy diverged")
        for engine in row.get("engines", ()):
            if not engine["identical"]:
                problems.append(
                    f"n={row['n']} S={engine['shards']}: engine diverged"
                )
    return problems


def write_document(document: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def format_summary(document: dict) -> str:
    lines = [
        f"{'n':>6}{'|L_q|':>7}{'set s':>9}{'bitset s':>10}"
        f"{'speedup':>9}{'ok':>4}  engines"
    ]
    for row in document["rows"]:
        engines = " ".join(
            f"S={e['shards']}:{e['query_s']:.3f}s"
            f"{'✓' if e['identical'] else '✗'}"
            for e in row.get("engines", ())
        )
        lines.append(
            f"{row['n']:>6}{row['num_relevant']:>7}{row['set_query_s']:>9.3f}"
            f"{row['bitset_query_s']:>10.3f}{row['speedup']:>8.1f}x"
            f"{'y' if row['identical'] else 'N':>4}  {engines}"
        )
    kernels = document.get("kernels", {})
    lines.append(
        "kernels (median ms @ nbits=%s): " % kernels.get("nbits")
        + ", ".join(
            f"{name}={value}"
            for name, value in kernels.items()
            if name not in ("nbits", "rows")
        )
    )
    return "\n".join(lines)
