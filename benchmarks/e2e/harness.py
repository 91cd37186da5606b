"""Run state and measurement helpers shared by the workloads.

``Run`` times every call the driver makes into the program (``op``),
queues every answer for verification against the goldens, and counts
failures; the helpers below read ``/proc``, and hold the single-layer
microbenchmarks a traced run adds.
"""

from __future__ import annotations

import contextlib
import os
import time
from pathlib import Path

import numpy as np

import golden
import trace as e2e_trace

#: Flags a query result may only carry when the request asked for them.
UNASKED_FLAGS = ("degraded", "partial", "approximate")


# ---------------------------------------------------------------------------
# Run state shared by all workloads
# ---------------------------------------------------------------------------
class Run:
    """Samples, failures and collected answers of one workload run."""

    def __init__(self, workload, params: dict, seed, seconds, scale, trace,
                 regen_golden, workdir: Path, process_started: float):
        self.workload = workload
        self.params = params
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.scale = scale
        self.trace = bool(trace)
        self.regen_golden = regen_golden
        self.workdir = workdir
        self.process_started = process_started
        self.recorder = None
        self.samples: dict[str, list[float]] = {}
        #: warm latencies per mix position, for best-of-passes statistics
        self.warm_by_query: dict[int, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: (golden key, answer dict) of every answered query
        self.answers: list[tuple[str, dict]] = []
        #: golden key -> callable computing the reference answer
        self.references: dict[str, object] = {}
        self.query_stats: dict[str, list] = {}
        self.info: dict = {}
        self.setup_s = 0.0
        self.pi_mean = 0.0
        self._request = 0

    # -- tracing ---------------------------------------------------------
    def install_trace(self) -> None:
        if self.trace:
            self.recorder = e2e_trace.install()

    def traced(self, fn, name: str, layer: str):
        """Wrap a callable the generic target list cannot reach (dataset
        generators held in a dict)."""
        if self.recorder is None:
            return fn
        return self.recorder.wrap(fn, name, layer)

    @contextlib.contextmanager
    def untraced(self):
        """Recorders off (reference, reopen and microbenchmark passes)."""
        if self.recorder is None:
            yield
            return
        previous, self.recorder.enabled = self.recorder.enabled, False
        try:
            yield
        finally:
            self.recorder.enabled = previous

    # -- timed operations --------------------------------------------------
    def fail(self, kind: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{kind}: {why}")

    def op(self, kind: str, fn, *, counted: bool = True, position=None):
        """Time ``fn()`` as one operation of ``kind``.  An exception is a
        failed op, not a crash.  Returns (seconds, result or None).
        ``position`` files a warm query under its place in the mix."""
        self._request += 1
        if self.recorder is not None:
            self.recorder.set_request(f"{kind}#{self._request}")
        if counted:
            self.attempted += 1
        started = time.perf_counter()
        try:
            result = fn()
        except Exception as error:  # the op failed; the run goes on
            result = None
            if counted:
                self.fail(kind, f"{type(error).__name__}: {error}")
            else:
                raise
        seconds = time.perf_counter() - started
        self.samples.setdefault(kind, []).append(seconds)
        if position is not None and result is not None:
            self.warm_by_query.setdefault(position, []).append(seconds)
        return seconds, result

    def setup_step(self, kind: str, fn):
        """A set-up call (timed for the per-layer view; a failure aborts
        the run instead of counting as a failed op)."""
        return self.op(f"setup.{kind}", fn, counted=False)[1]

    def setup_done(self) -> None:
        """``setup_s``: interpreter start → the first timed operation.
        References and microbenchmarks all run after the timed phases, so
        nothing but set-up is in this window."""
        self.setup_s = time.perf_counter() - self.process_started

    # -- answers -----------------------------------------------------------
    def collect(self, kind: str, key: str, answer: dict | None, reference,
                flags: dict | None = None) -> None:
        """Queue one answer for golden verification (done after timing)."""
        if answer is None:
            return  # the op already counted as failed
        for flag, value in (flags or {}).items():
            if value:
                self.fail(kind, f"unasked-for {flag} answer for {key}")
                return
        self.answers.append((key, answer))
        self.references.setdefault(key, reference)

    def collect_result(self, kind, key, result, reference) -> None:
        if result is None:
            return
        stats = result.stats
        self.query_stats.setdefault(kind, []).append(stats)
        self.collect(
            kind, key, golden.answer_of(result), reference,
            {flag: getattr(stats, flag, False) for flag in UNASKED_FLAGS},
        )

    def verify(self, sha: str) -> None:
        """Compare every collected answer with its golden."""
        store = golden.GoldenStore(
            self.workload, self.scale, self.seed, sha, regen=self.regen_golden
        )
        with self.untraced():
            for key, answer in self.answers:
                expected = store.expect(key, self.references[key])
                if answer != expected:
                    self.fail("verify", f"{key}: got {answer} want {expected}")
        store.save()
        self.info["golden_source"] = store.source
        self.info["golden_compute_s"] = store.compute_s
        distinct = {key: answer for key, answer in self.answers}
        self.info["distinct_queries"] = len(distinct)
        self.pi_mean = (
            sum(a["pi"] for a in distinct.values()) / len(distinct)
            if distinct else 0.0
        )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of one process, from /proc."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def process_group_pids(pgid: int) -> list[int]:
    """Live pids whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def directory_bytes(path: Path, suffixes=(".npz", ".json")) -> int:
    return sum(
        f.stat().st_size for f in Path(path).rglob("*")
        if f.is_file() and f.suffix in suffixes
    )


def sum_stats(stats_list, field: str) -> float:
    return float(sum(getattr(s, field, 0) or 0 for s in stats_list))


def sum_coordinator(stats_list, field: str) -> float:
    return float(sum(
        (getattr(s, "coordinator", None) or {}).get(field, 0)
        for s in stats_list
    ))


def best_of(fn, repeats: int = 5) -> float:
    """Best wall time of ``fn()`` — for sub-second one-shot timings, by
    the same reasoning as the per-query best pass."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return min(samples)


# ---------------------------------------------------------------------------
# Microbenchmarks of single layers (trace runs only, recorders paused)
# ---------------------------------------------------------------------------
def ged_us_per_pair(database, pairs: int = 20000) -> float:
    """Star kernel throughput: fixed pairs through the public batch
    evaluator (fresh instance; profiles built by an untimed first sweep)."""
    from repro.engine.starbatch import BatchStarEvaluator

    evaluator = BatchStarEvaluator()
    targets = list(database.graphs[:200])
    sources = list(database.graphs[: max(1, pairs // len(targets))])
    for graph in sources:  # untimed: build every star profile once
        evaluator.one_to_many(graph, targets[:1])
    evaluator.one_to_many(sources[0], targets)
    started = time.perf_counter()
    for graph in sources:
        evaluator.one_to_many(graph, targets)
    return (time.perf_counter() - started) / (len(sources) * len(targets)) * 1e6


def engine_us_per_cached_pair(engine, ids, theta: float) -> float:
    """Warm ``within`` over pairs already in the pair cache."""
    ids = [int(i) for i in ids[:200]]
    if len(ids) < 2:
        return 0.0
    for source in ids[:20]:
        engine.within(source, ids, theta)
    started = time.perf_counter()
    for source in ids[:20]:
        engine.within(source, ids, theta)
    return (time.perf_counter() - started) / (20 * len(ids)) * 1e6


def bitset_uncovered_counts_ms(universe: int, repeats: int = 9) -> float:
    """Median latency of the greedy round's batch popcount at the
    workload's universe (|L_q| rows × |L_q| bits)."""
    from repro.bitset import kernel

    rng = np.random.default_rng(3)
    universe = max(int(universe), 64)
    matrix = np.zeros((universe, kernel.num_words(universe)), dtype=np.uint64)
    for row in range(universe):
        matrix[row] = kernel.from_positions(
            rng.choice(universe, size=max(1, universe // 20), replace=False),
            universe,
        )
    covered = kernel.from_positions(
        rng.choice(universe, size=universe // 3, replace=False), universe
    )
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        kernel.uncovered_counts(matrix, covered)
        samples.append((time.perf_counter() - started) * 1e3)
    return percentile(samples, 50)


def engine_stats_of(index) -> list[dict]:
    """Public counters of every ``DistanceEngine`` behind an index: its
    own, its base's (mutable) and each shard's."""
    found = []
    engine = getattr(index, "engine", None)
    if engine is not None and hasattr(engine, "stats"):
        found.append(dict(engine.stats()))
    if getattr(index, "base", None) is not None:
        found += engine_stats_of(index.base)
    for shard in getattr(index, "shards", ()):
        found += engine_stats_of(shard)
    return found


def engine_totals(engines) -> dict:
    """Sum the public counters of several ``DistanceEngine.stats()``."""
    total = {"evaluations": 0, "cache_hits": 0, "batches": 0}
    for stats in engines:
        for key in total:
            total[key] += stats.get(key, 0)
    return total
