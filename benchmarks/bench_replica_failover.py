"""Replica failover benchmark: tail latency + availability vs kill rate.

Opens one shard bundle through :class:`repro.replica.ReplicatedIndex`
with R ∈ {1, 2, 3} worker processes per shard while a killer thread
SIGKILLs a random live worker at a configured rate.  Per configuration
it records:

* **latency** — p50/p99 per-query wall clock.  With R ≥ 2 a kill costs
  one failover hop; with R = 1 it costs a restart wait or a failed
  query, and the tail shows the difference.
* **availability** — the fraction of queries answered.  A query fails
  (``ShardUnavailableError``) only when every replica of one shard is
  down at once; there is no answer over the surviving shards.
* **supervision counters** — spawns/restarts/deaths actually injected,
  so a row with ``kills: 0`` cannot masquerade as resilience.

Correctness under churn is enforced elsewhere (tests + replica smoke);
this benchmark measures the *cost* of surviving it.  Runnable standalone
(``python benchmarks/bench_replica_failover.py``) or under pytest; both
write ``BENCH_replica_failover.json`` at the repository root.
"""

from __future__ import annotations

import json
import random
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.datasets import GENERATORS
from repro.ged.star import StarDistance
from repro.graphs import quartile_relevance
from repro.index.pivec import ThresholdLadder
from repro.replica import ReplicatedIndex, ShardUnavailableError
from repro.shard import build_shards

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_replica_failover.json"

LADDER = ThresholdLadder((2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0))
BUILD = dict(num_vantage_points=6, branching=4)


class _Killer:
    """SIGKILLs a random live worker every ``1 / rate`` seconds."""

    def __init__(self, cluster, rate_per_s: float, seed: int):
        self.cluster = cluster
        self.rate = rate_per_s
        self.rng = random.Random(seed)
        self.kills = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        if self.rate > 0:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)

    def _run(self):
        supervisor = self.cluster.supervisor
        while not self._stop.wait(1.0 / self.rate):
            live = [
                handle
                for shard_id in range(self.cluster.num_shards)
                for handle in supervisor.live(shard_id)
            ]
            if not live:
                continue
            victim = self.rng.choice(live)
            try:
                victim.proc.kill()
                self.kills += 1
            except (OSError, AttributeError):
                pass


def failover_benchmark(
    num_graphs: int = 48,
    num_shards: int = 3,
    seed: int = 17,
    replicas=(1, 2, 3),
    kill_rates=(0.0, 2.0, 5.0),
    num_queries: int = 60,
):
    db = GENERATORS["dud"](num_graphs=num_graphs, seed=seed)
    distance = StarDistance()
    query_fn = quartile_relevance(db, quantile=0.5)
    thetas = (6.0, 8.0, 12.0)

    rows = []
    with tempfile.TemporaryDirectory() as out_dir:
        manifest = build_shards(
            db, distance, num_shards=num_shards, out_dir=out_dir,
            thresholds=LADDER, seed=7, **BUILD,
        )
        for R in replicas:
            for rate in kill_rates:
                with ReplicatedIndex.open(
                    manifest, db, distance, replicas=R,
                    heartbeat_s=0.1, op_timeout_s=5.0,
                ) as cluster, _Killer(cluster, rate, seed) as killer:
                    session = cluster.session(query_fn)
                    latencies = []
                    failed = 0
                    for i in range(num_queries):
                        theta = thetas[i % len(thetas)]
                        k = 2 + (i % 4)
                        started = time.perf_counter()
                        try:
                            session.query(theta, k)
                        except ShardUnavailableError:
                            failed += 1
                        latencies.append(time.perf_counter() - started)
                    stats = cluster.stats()["replica"]
                ms = np.asarray(latencies) * 1e3
                rows.append({
                    "replicas": R,
                    "kill_rate_per_s": rate,
                    "kills": killer.kills,
                    "queries": num_queries,
                    "p50_ms": round(float(np.percentile(ms, 50)), 2),
                    "p99_ms": round(float(np.percentile(ms, 99)), 2),
                    "max_ms": round(float(ms.max()), 2),
                    "availability": round(1.0 - failed / num_queries, 4),
                    "failed_queries": failed,
                    "spawns": stats["spawns"],
                    "restarts": stats["restarts"],
                })

    document = {
        "benchmark": "replica_failover",
        "dataset": f"random n={num_graphs} seed={seed}",
        "num_shards": num_shards,
        "thetas": list(thetas),
        "num_queries": num_queries,
        "rows": rows,
    }
    _JSON_PATH.write_text(json.dumps(document, indent=2) + "\n")
    return document


def _print_summary(document):
    print(f"wrote {_JSON_PATH}")
    print(f"{'R':>3}{'kill/s':>8}{'kills':>7}{'p50 ms':>9}{'p99 ms':>9}"
          f"{'max ms':>9}{'avail':>8}{'restarts':>9}")
    for row in document["rows"]:
        print(f"{row['replicas']:>3}{row['kill_rate_per_s']:>8.1f}"
              f"{row['kills']:>7}{row['p50_ms']:>9.1f}{row['p99_ms']:>9.1f}"
              f"{row['max_ms']:>9.1f}{row['availability']:>8.3f}"
              f"{row['restarts']:>9}")


def test_replica_failover_benchmark():
    document = failover_benchmark(
        num_graphs=36, replicas=(1, 2), kill_rates=(0.0, 3.0),
        num_queries=16,
    )
    _print_summary(document)
    for row in document["rows"]:
        assert row["queries"] == 16
        # A query fails only when a whole group is down at once, which
        # under one killer thread needs R == 1.
        if row["replicas"] >= 2:
            assert row["availability"] == 1.0, row


if __name__ == "__main__":
    outcome = failover_benchmark()
    _print_summary(outcome)
