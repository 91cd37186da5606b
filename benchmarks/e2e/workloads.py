"""The four end-to-end workloads.

Each workload generates its inputs from the seed, sets the deployment up
through the public API, runs a cold pass, warm passes and its own extra
phases, and records every answer for verification against the goldens
(``golden.py``).  Why each exists, and which layers it exercises or
leaves idle, is written down in ``README.md`` and ``BENCHMARK.json``.

All workloads run n = 5 000 at the ``full`` scale.  The contract's time
cap (92 driver runs in 3 420 s, ~37 s each including set-up and golden
computation) is tighter than the issue's ~60 s sizing, so the relevant
fraction is smaller than first sketched (top 2–5 % instead of 10–15 %),
never with fewer than 40 pooled warm samples.  The dud mixes ask about
*every* feature dimension: in the dud generator which scaffold families
bind which target is a per-seed lottery, and a mix over a subset of the
targets made latency swing by ±25 % from seed to seed.  ``SCALES`` is the
one place those numbers live.
"""

from __future__ import annotations

import gc
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import golden
from harness import (
    UNASKED_FLAGS,
    Run,
    best_of,
    bitset_uncovered_counts_ms,
    directory_bytes,
    engine_stats_of,
    engine_us_per_cached_pair,
    ged_us_per_pair,
    percentile,
    process_group_pids,
    vm_hwm_mb,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: (θ, k) pairs of the dud mixes, assigned round-robin (paper Sec. 8: θ
#: low on the distance CDF, k ≤ 20).
DUD_THETA_K = ((8.0, 10), (10.0, 10), (8.0, 20), (12.0, 5))

#: Ladder quantiles of the vector workload — same construction as
#: ``repro.bench.hotpath.make_instance``.
VEC_LADDER_QUANTILES = (0.02, 0.05, 0.08, 0.12, 0.2, 0.35, 0.5)

SCALES = {
    "full": {
        "dud_inproc": dict(
            n=5000, functions=10, quantile=0.97, min_passes=4, refined=5,
            build=dict(num_vantage_points=20, branching=8),
        ),
        "vec_sharded": dict(
            n=5000, dims=6, functions=10, quantile=0.95, min_passes=4,
            shards=4, ks=(8, 16, 48), rungs=(3, 4, 5),
            build=dict(num_vantage_points=8, branching=16),
        ),
        "dud_served": dict(
            n=5000, functions=10, quantile=0.985, min_passes=2, shards=2,
            replicas=2, clients=2, concurrency=2, pings=200,
            build=dict(num_vantage_points=20, branching=8),
        ),
        "dud_mutable": dict(
            n=5000, extra=200, functions=10, quantile=0.98, shards=2,
            rounds=4, inserts=35, deletes=10, updates=5,
            min_passes=1, checkpoint_after_round=2,
            build=dict(num_vantage_points=20, branching=8),
        ),
    },
    "smoke": {
        "dud_inproc": dict(
            n=300, functions=4, quantile=0.8, min_passes=1, refined=4,
            build=dict(num_vantage_points=8, branching=4),
        ),
        "vec_sharded": dict(
            n=300, dims=6, functions=4, quantile=0.7, min_passes=1,
            shards=4, ks=(4, 8, 16), rungs=(3, 4, 5),
            build=dict(num_vantage_points=4, branching=8),
        ),
        "dud_served": dict(
            n=300, functions=4, quantile=0.8, min_passes=1, shards=2,
            replicas=2, clients=2, concurrency=2, pings=20,
            build=dict(num_vantage_points=8, branching=4),
        ),
        "dud_mutable": dict(
            n=300, extra=40, functions=3, quantile=0.8, shards=2,
            rounds=2, inserts=7, deletes=2, updates=1,
            min_passes=1, checkpoint_after_round=1,
            build=dict(num_vantage_points=8, branching=4),
        ),
    },
}

def warm_pass_count(run: Run, pass_seconds: float) -> int:
    """Whole passes that fill ``--seconds``, never fewer than the scale's
    minimum (40 pooled samples at full scale)."""
    wanted = math.ceil(run.seconds / max(pass_seconds, 1e-6))
    return max(run.params["min_passes"], min(wanted, 64))


def dud_mix(run: Run, database) -> list[dict]:
    """One relevance function per feature dimension (top ``1 - quantile``
    of that target's affinity); the seed decides the order, and so which
    (θ, k) of ``DUD_THETA_K`` each dimension is asked with."""
    from repro import quartile_relevance

    rng = np.random.default_rng([run.seed, 1])
    order = rng.permutation(database.num_features)[: run.params["functions"]]
    mix = []
    for position, dim in enumerate(order):
        theta, k = DUD_THETA_K[position % len(DUD_THETA_K)]
        mix.append({
            "dims": [int(dim)], "quantile": run.params["quantile"],
            "theta": theta, "k": k,
            "fn": quartile_relevance(
                database, dims=[int(dim)], quantile=run.params["quantile"]
            ),
        })
    return mix


def mix_spec(mix) -> list[dict]:
    """The mix without its relevance-function objects (JSON-safe)."""
    return [{k: v for k, v in entry.items() if k != "fn"} for entry in mix]


def key_of(state: str, entry: dict, theta=None, k=None) -> str:
    return golden.query_key(
        state, entry["dims"], entry["quantile"],
        entry["theta"] if theta is None else theta,
        entry["k"] if k is None else k,
    )


def star_reference(reference, entry, theta=None, k=None):
    theta = entry["theta"] if theta is None else theta
    k = entry["k"] if k is None else k
    return lambda: reference.expect(entry["fn"], theta, k)


def cold_session_pass(run: Run, index, mix, reference_for) -> list:
    """Cold pass: a fresh session per query on the freshly opened index.
    Returns the live sessions."""
    sessions = []
    gc.collect()
    for entry in mix:
        def cold(entry=entry):
            session = index.session(entry["fn"])
            sessions.append(session)
            return session.query(entry["theta"], entry["k"])
        _, result = run.op("query.cold", cold)
        run.collect_result(
            "query.cold", key_of("base", entry), result, reference_for(entry)
        )
    return sessions


def session_passes(run: Run, mix, sessions, state: str, reference_for):
    """Timed warm passes on live sessions.  The first pass sizes the rest
    to fill ``--seconds``; no separate settle pass, because each query's
    latency is its best pass (see ``base_metrics``)."""
    warm_wall = 0.0
    passes = done = 1
    while done <= passes:
        gc.collect()
        pass_started = time.perf_counter()
        for position, (entry, session) in enumerate(zip(mix, sessions)):
            _, result = run.op(
                "query.warm",
                lambda: session.query(entry["theta"], entry["k"]),
                position=position,
            )
            run.collect_result(
                "query.warm", key_of(state, entry), result,
                reference_for(entry),
            )
        pass_seconds = time.perf_counter() - pass_started
        warm_wall += pass_seconds
        if done == 1:
            passes = warm_pass_count(run, pass_seconds)
        done += 1
    run.info["warm_wall_s"] = warm_wall
    run.info["warm_passes"] = passes


def base_metrics(run: Run, *, artifact_bytes: int, n: int,
                 recovery_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """(the end-to-end metrics ``BENCHMARK.json`` bounds, the end-to-end
    timings every workload also reports).  The timings are not bounded
    there: across ten seeds on this sandbox none of them holds a spread
    under 0.25 (README, "Measured spread"); ``compare.py`` bounds them
    for runs of one seed."""
    warm = run.samples.get("query.warm", [])
    cold = run.samples.get("query.cold", [])
    exact = run.info.get("exact_calls_cold")
    if exact is None:
        exact = [
            s.distance_calls for s in run.query_stats.get("query.cold", [])
        ]
    run.info["samples"] = {
        "query_cold_p50_ms": len(cold),
        "query_p50_ms": len(warm),
        "query_p75_ms": len(warm),
    }
    # The box this runs on slows down by 10–60 % for seconds at a time
    # (no steal is reported to the guest).  Each query's best warm pass
    # is its latency without those episodes; percentiles are taken over
    # the mix, and throughput follows from Little's law for a closed loop
    # (clients in flight / mean latency).  The pooled percentiles and the
    # plain completed / wall rate go to the result document too.
    best = [min(samples) for samples in run.warm_by_query.values()]
    clients = run.info.get("clients", 1)
    run.info["pooled_warm"] = {
        "p50_ms": percentile(warm, 50) * 1e3,
        "p75_ms": percentile(warm, 75) * 1e3,
        "queries_per_s": len(warm) / run.info["warm_wall_s"],
    }
    metrics = {
        "setup_s": run.setup_s,
        "exact_calls_per_query": float(np.mean(exact)),
        "pi_mean": run.pi_mean,
        "peak_rss_mb": peak_rss_mb,
        "artifact_bytes_per_graph": artifact_bytes / n,
    }
    timings = {
        "query_p50_ms": percentile(best, 50) * 1e3,
        "query_p75_ms": percentile(best, 75) * 1e3,
        "query_cold_p50_ms": percentile(cold, 50) * 1e3,
        "queries_per_s": clients / float(np.mean(best)),
        "recovery_s": recovery_s,
    }
    return metrics, timings


# ---------------------------------------------------------------------------
# dud_inproc
# ---------------------------------------------------------------------------
def dud_inproc(run: Run) -> dict:
    import repro
    from repro import NBIndex, StarDistance
    from repro.datasets import GENERATORS
    from repro.index.persistence import save_index

    params = run.params
    run.install_trace()
    generate = run.traced(GENERATORS["dud"], "datasets.dud_like", "graphs")
    database = run.setup_step(
        "generate", lambda: generate(num_graphs=params["n"], seed=run.seed)
    )
    built = run.setup_step("build", lambda: NBIndex.build(
        database, StarDistance(), seed=run.seed, **params["build"]
    ))
    artifact = run.workdir / "index.npz"
    run.setup_step("save", lambda: save_index(built, artifact))
    engines = engine_stats_of(built)
    del built
    index = run.setup_step(
        "open", lambda: repro.open_index(artifact, database)
    )
    run.setup_done()

    mix = dud_mix(run, database)
    run.info["mix"] = mix_spec(mix)
    reference = golden.StarReference(database)

    def reference_for(entry, theta=None, k=None):
        return star_reference(reference, entry, theta, k)

    sessions = cold_session_pass(run, index, mix, reference_for)
    session_passes(run, mix, sessions, "base", reference_for)

    # refine: the paper's zoom (Sec. 7) on live sessions — θ → 0.75 θ,
    # then k → 2k
    gc.collect()
    for entry, session in list(zip(mix, sessions))[: params["refined"]]:
        theta = 0.75 * entry["theta"]
        for k in (entry["k"], 2 * entry["k"]):
            _, result = run.op(
                "refine", lambda: session.query(theta, k)
            )
            run.collect_result(
                "refine", key_of("base", entry, theta, k), result,
                reference_for(entry, theta, k),
            )

    peak = vm_hwm_mb()
    engines += engine_stats_of(index)
    micro = {}
    if run.trace:
        with run.untraced():
            relevant = database.relevant_indices(mix[0]["fn"])
            micro = {
                "ged.us_per_pair": ged_us_per_pair(database),
                "engine.us_per_cached_pair": engine_us_per_cached_pair(
                    index.engine, relevant, mix[0]["theta"]
                ),
                "bitset.uncovered_counts_ms": bitset_uncovered_counts_ms(
                    len(relevant)
                ),
            }

    run.verify(golden.inputs_sha(
        database.features, len(database), mix_spec(mix)
    ))
    with run.untraced():
        recovery_s = best_of(lambda: repro.open_index(artifact, database))
    metrics, extra = base_metrics(
        run, artifact_bytes=artifact.stat().st_size, n=params["n"],
        recovery_s=recovery_s, peak_rss_mb=peak,
    )
    extra["refine_p50_ms"] = percentile(run.samples["refine"], 50) * 1e3
    run.info["samples"]["refine_p50_ms"] = len(run.samples["refine"])
    return {
        "metrics": metrics, "extra": extra, "micro": micro,
        "engines": engines,
    }


# ---------------------------------------------------------------------------
# vec_sharded
# ---------------------------------------------------------------------------
def vec_instance(run: Run):
    """Gaussian points, Euclidean metric, shared quantile ladder — the
    construction of ``repro.bench.hotpath.make_instance`` with the
    benchmark's own seed and mix."""
    from repro.index.pivec import ThresholdLadder
    from repro.metricspace import vector_database

    params = run.params
    n, dims = params["n"], params["dims"]
    rng = np.random.default_rng([run.seed, 2])
    points = rng.normal(size=(n, dims))
    make = run.traced(vector_database, "metricspace.vector_database", "graphs")
    database, distance = run.setup_step("generate", lambda: make(points))
    pairs = rng.integers(0, n, size=(min(4000, n * 4), 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    sample = (
        ((points[pairs[:, 0]] - points[pairs[:, 1]]) ** 2).sum(axis=1)
        ** (1.0 / 2.0)
    )
    ladder = ThresholdLadder(
        sorted(float(np.quantile(sample, q)) for q in VEC_LADDER_QUANTILES)
    )
    return points, database, distance, ladder, rng


def vec_mix(run: Run, database, ladder, rng) -> list[dict]:
    from repro import quartile_relevance

    params = run.params
    dims = params["dims"]
    singles = [(int(d),) for d in rng.permutation(dims)]
    pairs = [(int(d), int((d + 1) % dims)) for d in rng.permutation(dims)]
    mix = []
    for position, fn_dims in enumerate((singles + pairs)[: params["functions"]]):
        mix.append({
            "dims": list(fn_dims), "quantile": params["quantile"],
            "theta": float(ladder.values[
                params["rungs"][position % len(params["rungs"])]
            ]),
            "k": int(params["ks"][(position // 2) % len(params["ks"])]),
            "fn": quartile_relevance(
                database, dims=fn_dims, quantile=params["quantile"]
            ),
        })
    return mix


def vec_sharded(run: Run) -> dict:
    from repro import NBIndex
    from repro.shard import ShardedIndex, build_shards

    params = run.params
    run.install_trace()
    points, database, distance, ladder, rng = vec_instance(run)
    bundle = run.workdir / "bundle"
    manifest = run.setup_step("build", lambda: build_shards(
        database, distance, num_shards=params["shards"], out_dir=bundle,
        thresholds=ladder, seed=run.seed, **params["build"],
    ))
    sharded = run.setup_step(
        "open", lambda: ShardedIndex.load(manifest, database, distance)
    )
    run.setup_done()

    mix = vec_mix(run, database, ladder, rng)
    run.info["mix"] = mix_spec(mix)
    reference = golden.VectorReference(database, distance, points)

    def reference_for(entry):
        return lambda: reference.expect(entry["fn"], entry["theta"], entry["k"])

    sessions = cold_session_pass(run, sharded, mix, reference_for)
    session_passes(run, mix, sessions, "base", reference_for)

    peak = vm_hwm_mb()
    engines = engine_stats_of(sharded)
    micro = {}
    if run.trace:
        with run.untraced():
            # shard.overhead_x: S shards vs one NB-Index, same build
            # parameters and ladder, first four mix queries, warm.
            single = NBIndex.build(
                database, distance, thresholds=ladder, seed=run.seed,
                **params["build"],
            )
            ratios = []
            for entry, session in list(zip(mix, sessions))[:4]:
                one = single.session(entry["fn"])
                one.query(entry["theta"], entry["k"])
                started = time.perf_counter()
                one.query(entry["theta"], entry["k"])
                single_s = time.perf_counter() - started
                started = time.perf_counter()
                session.query(entry["theta"], entry["k"])
                ratios.append((time.perf_counter() - started) / single_s)
            relevant = database.relevant_indices(mix[0]["fn"])
            micro = {
                "shard.overhead_x": float(np.median(ratios)),
                "engine.us_per_cached_pair": engine_us_per_cached_pair(
                    sharded.engine, relevant, mix[0]["theta"]
                ),
                "bitset.uncovered_counts_ms": bitset_uncovered_counts_ms(
                    len(relevant)
                ),
            }
    sharded.invalidate_pools()

    run.verify(golden.inputs_sha(points, mix_spec(mix)))
    with run.untraced():
        recovery_s = best_of(
            lambda: ShardedIndex.load(manifest, database, distance)
        )
    metrics, extra = base_metrics(
        run, artifact_bytes=directory_bytes(bundle), n=params["n"],
        recovery_s=recovery_s, peak_rss_mb=peak,
    )
    return {"metrics": metrics, "extra": extra, "micro": micro,
            "engines": engines}


# ---------------------------------------------------------------------------
# dud_served
# ---------------------------------------------------------------------------
class Server:
    """``python -m repro.cli serve`` as a subprocess in its own process
    group, so teardown can account for every worker it forked."""

    def __init__(self, run: Run, db_path: Path, manifest: Path):
        params = run.params
        self.run = run
        self.log = run.workdir / "server.stderr"
        self.trace_dir = run.workdir / "server-trace"
        env = {
            key: value for key, value in os.environ.items()
            if key != "REPRO_ENGINE_WORKERS"
        }
        python_path = [str(SRC)]
        if run.trace:
            self.trace_dir.mkdir(exist_ok=True)
            python_path = [str(HERE / "shim"), str(HERE)] + python_path
            env["REPRO_E2E_TRACE_DIR"] = str(self.trace_dir)
        env["PYTHONPATH"] = os.pathsep.join(python_path)
        self._log_handle = open(self.log, "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(db_path),
                "--shards", str(manifest),
                "--replicas", str(params["replicas"]),
                "--tcp", "127.0.0.1:0",
                "--concurrency", str(params["concurrency"]),
            ],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log_handle, start_new_session=True, cwd=run.workdir,
        )
        self.port = None

    def wait_listening(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited {self.proc.returncode}: "
                    f"{self.log.read_text()[-2000:]}"
                )
            for line in self.log.read_text().splitlines():
                if line.startswith("listening on "):
                    self.port = int(line.rsplit(":", 1)[1])
                    return
            time.sleep(0.02)
        raise RuntimeError("server did not start listening in time")

    def connect(self):
        return socket.create_connection(("127.0.0.1", self.port), timeout=120)

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in process_group_pids(self.proc.pid))

    def dump_traces(self, timeout: float = 15.0) -> None:
        """SIGUSR1 to the group: each process writes its span dump (see
        ``trace.install_for_server``); wait for one file per pid."""
        pids = process_group_pids(self.proc.pid)
        os.killpg(self.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        wanted = {self.trace_dir / f"trace-pid{pid}.json" for pid in pids}
        while time.monotonic() < deadline:
            if all(path.exists() for path in wanted):
                return
            time.sleep(0.05)
        raise RuntimeError(
            f"trace dumps missing: {[p.name for p in wanted if not p.exists()]}"
        )

    def request_stop(self) -> None:
        """SIGTERM: the server drains and stops its workers (seconds, at
        n = 5 000) while the caller does something else."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def stop(self) -> list[int]:
        """Wait for the graceful drain; anything left in the group is
        killed.  Returns pids that had to be killed (orphans are a
        failure)."""
        pgid = self.proc.pid
        self.request_stop()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 3.0
        while process_group_pids(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        leftovers = process_group_pids(pgid)
        if leftovers:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        self._log_handle.close()
        return leftovers


class Client:
    """One closed-loop analyst: one TCP connection, one request in flight."""

    def __init__(self, server: Server):
        self.sock = server.connect()
        self.stream = self.sock.makefile("rwb")

    def call(self, payload: dict) -> tuple[bytes, dict]:
        self.stream.write((json.dumps(payload) + "\n").encode())
        self.stream.flush()
        line = self.stream.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line, json.loads(line)

    def close(self) -> None:
        try:
            self.stream.close()
            self.sock.close()
        except OSError:
            pass


def wire_request(entry: dict, request_id) -> dict:
    return {
        "id": request_id, "op": "query", "theta": entry["theta"],
        "k": entry["k"], "quantile": entry["quantile"], "dims": entry["dims"],
    }


def served_pass(run: Run, server: Server, mix, kind: str, passes: int,
                clients: int, reference_for, raw_lines: dict,
                split: bool = False) -> float:
    """``passes`` passes of the mix over ``clients`` closed-loop
    connections.  Every client asks the whole mix in the same order, so a
    query always shares the server with a copy of itself — with the mix
    ``split`` between the clients (entry j to client j mod clients; the
    cold pass, where each entry must be first asked once) which queries
    overlap is a matter of timing, and latencies scatter by 2×.  Latency
    is wire-frame-out → wire-frame-in.  Returns the wall time."""
    barrier = threading.Barrier(clients + 1)
    lock = threading.Lock()
    errors = []

    def exchange(client, client_id: int, pass_no: int, position: int, entry):
        request = wire_request(
            entry, f"{kind}/{pass_no}/{position}/c{client_id}"
        )
        started = time.perf_counter()
        try:
            line, response = client.call(request)
            error = None
        except (OSError, ValueError) as exc:
            line, response, error = b"", {}, repr(exc)
        seconds = time.perf_counter() - started
        with lock:
            run.attempted += 1
            run.samples.setdefault(kind, []).append(seconds)
            if error is not None or not response.get("ok"):
                run.fail(kind, error or json.dumps(
                    response.get("error", response)
                ))
                return
            if kind == "query.warm":
                run.warm_by_query.setdefault(position, []).append(seconds)
            body = response["result"]
            # The first answer to a mix entry is kept verbatim for the
            # byte-identity check; later ones must carry the same result.
            first = raw_lines.setdefault(position, line)
            if json.loads(first)["result"] != body:
                run.fail(kind, f"answer changed between passes: {line!r}")
            run.collect(
                kind, key_of("base", entry),
                {key: body[key] for key in (
                    "answer", "gains", "pi", "num_relevant",
                )},
                reference_for(entry),
                {flag: body.get(flag, False)
                 for flag in UNASKED_FLAGS + ("bound_only",)},
            )

    def loop(client_id: int):
        client = None
        try:
            client = Client(server)
            barrier.wait()
            for pass_no in range(passes):
                for position, entry in enumerate(mix):
                    if not split or position % clients == client_id:
                        exchange(client, client_id, pass_no, position, entry)
        except Exception as exc:  # surfaced after join
            errors.append(exc)
            barrier.abort()
        finally:
            if client is not None:
                client.close()

    threads = [
        threading.Thread(target=loop, args=(c,), daemon=True)
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    gc.collect()
    try:
        barrier.wait(timeout=60)
    except threading.BrokenBarrierError:
        pass
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600)
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return wall


def dud_served(run: Run) -> dict:
    from repro import StarDistance
    from repro.datasets import GENERATORS
    from repro.graphs.io import save_database
    from repro.shard import build_shards

    params = run.params
    clients = params["clients"]
    database = run.setup_step(
        "generate",
        lambda: GENERATORS["dud"](num_graphs=params["n"], seed=run.seed),
    )
    db_path = run.workdir / "db.jsonl"
    run.setup_step("save_db", lambda: save_database(database, db_path))
    bundle = run.workdir / "bundle"
    manifest = run.setup_step("build", lambda: build_shards(
        database, StarDistance(), num_shards=params["shards"],
        out_dir=bundle, seed=run.seed, **params["build"],
    ))
    mix = dud_mix(run, database)
    run.info["mix"] = mix_spec(mix)
    reference = golden.StarReference(database)

    def reference_for(entry):
        return star_reference(reference, entry)

    raw_lines: dict[int, bytes] = {}
    micro = {}
    server = None
    leftovers: list[int] = []
    try:
        def start():
            started_server = Server(run, db_path, manifest)
            started_server.wait_listening()
            return started_server
        server = run.setup_step("serve", start)
        run.setup_done()

        cold_wall = served_pass(
            run, server, mix, "query.cold", 1, clients, reference_for,
            raw_lines, split=True,
        )
        passes = warm_pass_count(run, cold_wall)
        run.info["warm_wall_s"] = served_pass(
            run, server, mix, "query.warm", passes, clients, reference_for,
            raw_lines,
        )
        run.info.update(warm_passes=passes, clients=clients, loop="closed")
        if run.trace:
            micro.update(served_micro(run, server, mix, reference_for, raw_lines))

        admin = Client(server)
        try:
            _, stats = admin.call({"id": "stats", "op": "stats"})
        finally:
            admin.close()
        stats = stats["result"]
        replica = stats["index"].get("replica", {})
        run.info["replica_restarts"] = (
            replica.get("restarts", 0) + replica.get("wedge_kills", 0)
        )
        run.info["service_shed"] = stats["admission"]["shed"]
        peak = server.peak_rss_mb() + vm_hwm_mb()
        if run.trace:
            server.dump_traces()

        # The drain (worker shutdown) takes seconds at n = 5 000; the
        # in-process reference below runs while it proceeds.
        server.request_stop()
        micro.update(inprocess_reference(run, database, manifest, mix, raw_lines))
    finally:
        if server is not None:
            leftovers = server.stop()
    if leftovers:
        run.attempted += 1
        run.fail("teardown", f"orphaned server processes {leftovers}")
    if run.info["replica_restarts"] or run.info["service_shed"]:
        # A wedge-kill or a shed under sandbox load is noise in the
        # numbers: the run is reported, but not as a clean one.
        run.attempted += 1
        run.fail("noise", (
            f"replica restarts={run.info['replica_restarts']} "
            f"shed={run.info['service_shed']}: not a clean run"
        ))

    run.verify(golden.inputs_sha(
        database.features, len(database), mix_spec(mix)
    ))
    # recovery_s here: process start → listening (database load, worker
    # fleet spawn, hello handshakes) — measured once, a restart costs 2 s.
    metrics, extra = base_metrics(
        run, artifact_bytes=directory_bytes(bundle), n=params["n"],
        recovery_s=run.samples["setup.serve"][0], peak_rss_mb=peak,
    )
    return {
        "metrics": metrics, "extra": extra, "micro": micro, "engines": [],
        "server_trace_dir": server.trace_dir if run.trace else None,
    }


def served_micro(run: Run, server: Server, mix, reference_for, raw_lines):
    """Trace runs only: one client alone on the first four queries (what
    the second client costs the first) and the bare wire round trip."""
    served_pass(
        run, server, mix[:4], "query.solo", 3, 1, reference_for, raw_lines
    )
    solo = run.samples["query.solo"]
    shared = [s for p in range(4) for s in run.warm_by_query.get(p, [])]
    pings = []
    admin = Client(server)
    try:
        for i in range(run.params["pings"]):
            started = time.perf_counter()
            admin.call({"id": f"ping{i}", "op": "ping"})
            pings.append(time.perf_counter() - started)
    finally:
        admin.close()
    return {
        "service.ping_p50_us": percentile(pings, 50) * 1e6,
        "service.concurrency_x": percentile(shared, 50) / percentile(solo, 50),
        "_solo_mean_s": float(np.mean(solo)),
    }


def inprocess_reference(run: Run, database, manifest, mix, raw_lines) -> dict:
    """The same requests through the same service code, without replicas
    or sockets: the wire answers must be byte-identical, and the engine
    counters give ``exact_calls_per_query`` (the wire exposes none)."""
    from repro import StarDistance
    from repro.service import QueryService, protocol
    from repro.shard import ShardedIndex

    sharded = ShardedIndex.load(manifest, database, StarDistance())
    exact_calls = []
    warm = []
    with QueryService(sharded) as service:
        for position, entry in enumerate(mix):
            # Same id as the cold-pass request whose answer was kept.
            client_id = position % run.info["clients"]
            request = protocol.parse_request(json.dumps(wire_request(
                entry, f"query.cold/0/{position}/c{client_id}"
            )))
            before = sharded.stats()["distance_calls"]
            response = service.call(request)
            exact_calls.append(sharded.stats()["distance_calls"] - before)
            expected = (protocol.encode(response) + "\n").encode()
            run.attempted += 1
            if raw_lines.get(position, expected) != expected:
                run.fail("identity", (
                    f"wire {raw_lines[position]!r} != in-process {expected!r}"
                ))
            if run.trace and position < 4:
                for _ in range(3):  # as many as the solo wire passes
                    started = time.perf_counter()
                    service.call(request)
                    warm.append(time.perf_counter() - started)
    run.info["exact_calls_cold"] = exact_calls
    micro = {}
    if run.trace:
        relevant = database.relevant_indices(mix[0]["fn"])
        micro = {
            "_inproc_warm_mean_s": float(np.mean(warm)),
            "ged.us_per_pair": ged_us_per_pair(database),
            "engine.us_per_cached_pair": engine_us_per_cached_pair(
                sharded.engine, relevant, mix[0]["theta"]
            ),
            "bitset.uncovered_counts_ms": bitset_uncovered_counts_ms(
                len(relevant)
            ),
        }
    sharded.invalidate_pools()
    return micro


# ---------------------------------------------------------------------------
# dud_mutable
# ---------------------------------------------------------------------------
def mutation_stream(run: Run, n: int) -> list[list[tuple]]:
    """Seeded rounds of (op, victim gid or None).  Victims are drawn from
    the ids alive at that point; new graphs come from the generated tail
    in order, so the stream does not depend on anything the program
    returns."""
    params = run.params
    rng = np.random.default_rng([run.seed, 3])
    alive = list(range(n))
    next_id = n
    rounds = []
    for _ in range(params["rounds"]):
        ops = (
            ["insert"] * params["inserts"] + ["delete"] * params["deletes"]
            + ["update"] * params["updates"]
        )
        rng.shuffle(ops)
        round_ops = []
        for op in ops:
            victim = None
            if op in ("delete", "update"):
                victim = alive.pop(int(rng.integers(len(alive))))
            if op in ("insert", "update"):
                alive.append(next_id)
                next_id += 1
            round_ops.append((op, victim))
        rounds.append(round_ops)
    return rounds


class ShadowReplay:
    """The reference's own copy of the database, advanced round by round
    through the same mutation stream.  Verification walks the answers in
    the order they were collected, so the state only ever moves forward;
    one engine serves every state (ids are content-immutable)."""

    def __init__(self, full, n: int, stream):
        self.full = full
        self.stream = stream
        self.shadow = full.subset(range(n))
        self.reference = golden.StarReference(self.shadow)
        self.applied = 0
        self.next_new = n

    def expect(self, round_no: int, entry: dict) -> dict:
        if round_no < self.applied:
            raise RuntimeError("reference replay cannot rewind")
        while self.applied < round_no:
            for op, victim in self.stream[self.applied]:
                if op in ("insert", "update"):
                    self.shadow.append(
                        self.full[self.next_new],
                        self.full.features[self.next_new],
                    )
                    self.next_new += 1
                if op in ("delete", "update"):
                    self.shadow.mark_deleted(victim)
            self.applied += 1
        return self.reference.expect(entry["fn"], entry["theta"], entry["k"])


def dud_mutable(run: Run) -> dict:
    import repro
    from repro import StarDistance
    from repro.datasets import GENERATORS
    from repro.graphs.io import save_database
    from repro.shard import build_shards

    params = run.params
    n = params["n"]
    run.install_trace()
    generate = run.traced(GENERATORS["dud"], "datasets.dud_like", "graphs")
    full = run.setup_step("generate", lambda: generate(
        num_graphs=n + params["extra"], seed=run.seed
    ))
    base = full.subset(range(n))
    db_path = run.workdir / "db.jsonl"
    run.setup_step("save_db", lambda: save_database(base, db_path))
    bundle = run.workdir / "bundle"
    manifest = run.setup_step("build", lambda: build_shards(
        base, StarDistance(), num_shards=params["shards"], out_dir=bundle,
        seed=run.seed, **params["build"],
    ))
    journal = run.workdir / "mutations.journal"

    def open_mutable():
        return repro.open_index(
            manifest, db_path, mutable=True, journal=journal, seed=run.seed
        )
    mutable = run.setup_step("open", open_mutable)
    run.setup_done()
    run.info["flush_policy"] = "fsync before ack (shipped default)"
    artifact_bytes = directory_bytes(bundle)

    # Relevance thresholds are fixed from the base content: the same
    # function is asked before and after the database changes.
    mix = dud_mix(run, base)
    run.info["mix"] = mix_spec(mix)
    stream = mutation_stream(run, n)
    replay = ShadowReplay(full, n, stream)

    def query_pass(kind: str, round_no: int, index, entries) -> float:
        """One timed pass; answers are checked against the reference's
        state after ``round_no`` rounds of the stream."""
        gc.collect()
        started = time.perf_counter()
        for position, entry in enumerate(entries):
            _, result = run.op(kind, lambda: index.query(
                entry["fn"], entry["theta"], entry["k"]
            ), position=position if kind == "query.warm" else None)
            run.collect_result(
                kind, key_of(f"round{round_no}", entry), result,
                lambda entry=entry: replay.expect(round_no, entry),
            )
        return time.perf_counter() - started

    query_pass("query.cold", 0, mutable, mix)

    next_new = n
    mutations = 0
    warm_wall = 0.0
    journal_bytes = 0
    journal_mark = journal.stat().st_size  # header of a fresh journal
    checkpoint_report = None
    passes_per_round = None
    for round_no, round_ops in enumerate(stream, start=1):
        for op, victim in round_ops:
            if op == "delete":
                run.op("mutation", lambda: mutable.delete(victim))
            else:
                graph, features = full[next_new], full.features[next_new]
                next_new += 1
                if op == "insert":
                    run.op("mutation", lambda: mutable.insert(graph, features))
                else:
                    run.op("mutation", lambda: mutable.update(
                        victim, graph, features
                    ))
            mutations += 1
        if passes_per_round is None:
            # The first warm pass sizes the rest to fill --seconds.
            first = query_pass("query.warm", round_no, mutable, mix)
            warm_wall += first
            passes_per_round = warm_pass_count(
                run, first * params["rounds"]
            )
            remaining = passes_per_round - 1
        else:
            remaining = passes_per_round
        for _ in range(remaining):
            warm_wall += query_pass("query.warm", round_no, mutable, mix)
        if round_no == params["checkpoint_after_round"]:
            # Mid-stream, so recovery below replays a pinned base *and*
            # the records journaled after it.
            journal_bytes += journal.stat().st_size - journal_mark
            _, checkpoint_report = run.op("checkpoint", mutable.checkpoint)
            journal_mark = journal.stat().st_size
    journal_bytes += journal.stat().st_size - journal_mark
    run.info["warm_wall_s"] = warm_wall
    run.info["warm_passes"] = params["rounds"] * passes_per_round
    rounds = params["rounds"]

    compact_s, compact_report = run.op("compact", mutable.compact)
    query_pass("query.post_compact", rounds, mutable, mix[:2])
    engines = engine_stats_of(mutable)
    run.op("close", mutable.close)

    # Durability check: a restarted process sees only the files.  Reopen
    # from the checkpointed base + journal + compacted bundle; answers
    # must equal the post-mutation reference.
    reopen_s, reopened = run.op("reopen", open_mutable)
    first_answer_s = reopen_s
    if reopened is not None:
        first_answer_s += query_pass(
            "query.recovered", rounds, reopened, mix[:1]
        )
        query_pass("query.recovered", rounds, reopened, mix[1:4])
        query_pass("query.recovered_warm", rounds, reopened, mix[:4])
        run.info["recovered_delta"] = reopened.stats().get("delta", {})
        engines += engine_stats_of(reopened)
        run.op("close", reopened.close)
    # recovery_s: reopen alone (database load, journal replay, bundle
    # load), best of three — the first is the verified one above.
    reopens = list(run.samples["reopen"])
    with run.untraced():
        for _ in range(2):
            started = time.perf_counter()
            again = open_mutable()
            reopens.append(time.perf_counter() - started)
            again.close()
    peak = vm_hwm_mb()

    micro = {}
    if run.trace:
        with run.untraced():
            relevant = base.relevant_indices(mix[0]["fn"])
            micro = {
                "ged.us_per_pair": ged_us_per_pair(base),
                "bitset.uncovered_counts_ms": bitset_uncovered_counts_ms(
                    len(relevant)
                ),
            }

    run.verify(golden.inputs_sha(
        full.features, len(full), mix_spec(mix),
        [[list(op) for op in round_ops] for round_ops in stream],
    ))

    # Same four queries with the memtable full (last pass of the last
    # round) and after compaction + restart.
    last_round = run.samples["query.warm"][-len(mix):][:4]
    post = run.samples.get("query.recovered_warm", [])
    run.info["memtable_query_x"] = (
        percentile(last_round, 50) / percentile(post, 50) if post else 0.0
    )
    run.info["compact_report"] = compact_report
    run.info["checkpoint_report"] = checkpoint_report
    metrics, extra = base_metrics(
        run, artifact_bytes=artifact_bytes, n=n,
        recovery_s=min(reopens), peak_rss_mb=peak,
    )
    extra.update({
        "mutation_p50_ms": percentile(run.samples["mutation"], 50) * 1e3,
        "compact_s": compact_s,
        "checkpoint_s": run.samples["checkpoint"][0],
        "first_answer_s": first_answer_s,
        "journal_bytes_per_mutation": journal_bytes / mutations,
    })
    run.info["samples"]["mutation_p50_ms"] = len(run.samples["mutation"])
    return {"metrics": metrics, "extra": extra, "micro": micro,
            "engines": engines}


WORKLOADS = {
    "dud_inproc": dud_inproc,
    "vec_sharded": vec_sharded,
    "dud_served": dud_served,
    "dud_mutable": dud_mutable,
}
