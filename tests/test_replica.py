"""Replicated multi-process serving: bit-identity, failover, group loss.

The load-bearing claims under test:

* A replicated cluster answers **bit-identically** to the in-process
  ``ShardedIndex`` over the same bundle — including while replicas are
  being killed and wedged mid-query (chaos pinned to replica 0 so one
  sibling always survives).
* A **whole replica group down** fails the query with a typed
  ``ShardUnavailableError`` (``query_failed`` on the wire) — fast, never
  a hang, and never an answer over the surviving shards.
* A replica answering with **malformed or oversized frames** costs one
  typed failover (counted once), never a coordinator crash.
* ``repro serve`` turns **SIGTERM/SIGINT** into the graceful-drain path,
  answering everything already admitted before exiting 0.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import random_database
from repro import obs
from repro.ged import StarDistance
from repro.graphs import quartile_relevance
from repro.graphs.io import save_database
from repro.index.pivec import ThresholdLadder
from repro.replica import ReplicatedIndex, ShardUnavailableError
from repro.replica import wire
from repro.replica.errors import (
    ReplicaDead,
    ReplicaProtocolError,
    ReplicaUnreachable,
)
from repro.replica.router import ReplicaRouter
from repro.replica.supervisor import (
    RESTART_BASE_S,
    RESTART_CAP_S,
    RESTART_JITTER,
    WorkerHandle,
    restart_delay,
)
from repro.resilience import faults
from repro.resilience.faults import FaultPlan
from repro.shard import ShardedIndex, build_shards

LADDER = ThresholdLadder([2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 40.0])
BUILD = dict(num_vantage_points=6, branching=4, thresholds=LADDER)


@pytest.fixture(scope="module")
def cluster_db():
    return random_database(seed=17, size=48)


@pytest.fixture(scope="module")
def bundle(cluster_db, tmp_path_factory):
    out = tmp_path_factory.mktemp("replica-bundle")
    return build_shards(
        cluster_db, StarDistance(), num_shards=3, out_dir=out, seed=7,
        **BUILD,
    )


@pytest.fixture(scope="module")
def relevance_fn(cluster_db):
    return quartile_relevance(cluster_db, quantile=0.5)


@pytest.fixture(scope="module")
def reference(bundle, cluster_db, relevance_fn):
    """Single-process answers for every (theta, k) the tests replay."""
    sharded = ShardedIndex.load(bundle, cluster_db, StarDistance())
    refs = {
        (theta, k): sharded.query(relevance_fn, theta, k)
        for theta in (6.0, 8.0) for k in (3, 5)
    }
    sharded.close()
    return refs


def _assert_identical(got, ref):
    assert got.answer == ref.answer
    assert got.gains == ref.gains
    assert got.covered == ref.covered
    assert got.num_relevant == ref.num_relevant


class TestBitIdentity:
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_matches_sharded_index(
        self, bundle, cluster_db, relevance_fn, reference, replicas,
    ):
        with ReplicatedIndex.open(
            bundle, cluster_db, StarDistance(), replicas=replicas,
        ) as rep:
            for (theta, k), ref in reference.items():
                _assert_identical(rep.query(relevance_fn, theta, k), ref)

    def test_session_reuse_across_thetas(
        self, bundle, cluster_db, relevance_fn, reference,
    ):
        with ReplicatedIndex.open(
            bundle, cluster_db, StarDistance(), replicas=2,
        ) as rep:
            session = rep.session(relevance_fn)
            for (theta, k), ref in reference.items():
                _assert_identical(session.query(theta, k), ref)

    def test_rejects_opaque_relevance(self, bundle, cluster_db):
        with ReplicatedIndex.open(
            bundle, cluster_db, StarDistance(), replicas=1,
        ) as rep:
            with pytest.raises(TypeError, match="wire-expressible"):
                rep.session(lambda matrix: matrix[:, 0] > 0.5)

    def test_read_only_surface(self, bundle, cluster_db):
        from repro.index.errors import ReadOnlyIndexError

        with ReplicatedIndex.open(
            bundle, cluster_db, StarDistance(), replicas=1,
        ) as rep:
            assert rep.mutable is False
            with pytest.raises(ReadOnlyIndexError):
                rep.delete(0)
            with pytest.raises(TypeError, match="unexpected keyword"):
                rep.query(None, 8.0, 3, nonsense=True)


def test_stats_say_what_each_process_holds(bundle, cluster_db, monkeypatch):
    """``stats`` reports the serving process's VmRSS / VmHWM and every
    live worker's VmRSS — read from /proc by pid, nothing on the wire."""
    from repro.service import QueryService

    with ReplicatedIndex.open(
        bundle, cluster_db, StarDistance(), replicas=2,
    ) as rep:
        service = QueryService(rep)
        stats = service.stats()
        json.dumps(stats)  # the stats op serializes it as is
        process = stats["process"]
        assert set(process) == {"rss_mb", "peak_rss_mb"}
        assert 0.0 < process["rss_mb"] <= process["peak_rss_mb"]
        assert process == pytest.approx(obs.process_memory(os.getpid()), rel=0.2)
        workers = stats["index"]["replica"]["rss_mb"]
        assert [len(group) for group in workers] == [2, 2, 2]
        assert all(rss > 0.0 for group in workers for rss in group)
        # A dead worker has no entry; its siblings keep theirs.
        victim = rep.supervisor.groups[1][0]
        victim.next_restart_at = float("inf")  # the monitor leaves it down
        victim.kill()
        assert [
            len(group) for group in rep.supervisor.stats()["rss_mb"]
        ] == [2, 1, 2]
        # Where /proc cannot be read the section is absent, not zeroed.
        monkeypatch.setattr(obs, "process_memory", lambda pid="self": None)
        assert "process" not in service.stats()
        assert rep.supervisor.stats()["rss_mb"] == [[], [], []]


class TestChaosKills:
    def test_kill_churn_keeps_answers_identical(
        self, bundle, cluster_db, relevance_fn, reference,
    ):
        # Replica 0 of every shard dies every 12 ops, forever (each
        # restarted process serves 11 ops then dies again).  Replica 1
        # never dies, so the group stays available and the coordinator
        # fails over mid-query as kills land.
        plan = FaultPlan(replica_kill_every=12, replica_kill_replicas=(0,))
        with faults.injected(plan):
            with ReplicatedIndex.open(
                bundle, cluster_db, StarDistance(), replicas=2,
                heartbeat_s=0.1,
            ) as rep:
                for _ in range(3):
                    for (theta, k), ref in reference.items():
                        _assert_identical(
                            rep.query(relevance_fn, theta, k), ref
                        )
                # Kills definitely happened (ops served ≫ kill_every);
                # give the monitor a beat to complete a restart.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if rep.supervisor.stats()["restarts"] > 0:
                        break
                    time.sleep(0.05)
                stats = rep.supervisor.stats()
        assert stats["spawns"] > 6  # initial fleet was 6
        assert stats["restarts"] > 0

    def test_wedged_replica_fails_over(
        self, bundle, cluster_db, relevance_fn, reference, tmp_path,
    ):
        # One-shot wedge on replica 0: the first worker to claim the
        # token sleeps well past the op timeout.  The caller times out,
        # poisons the connection, and the answer comes from the sibling.
        token = tmp_path / "wedge-token"
        token.write_text("wedge")
        plan = FaultPlan(
            replica_wedge_token=str(token),
            replica_wedge_seconds=5.0,
            replica_kill_replicas=(0,),
        )
        with faults.injected(plan):
            with ReplicatedIndex.open(
                bundle, cluster_db, StarDistance(), replicas=2,
                op_timeout_s=1.0,
            ) as rep:
                ref = reference[(8.0, 5)]
                _assert_identical(rep.query(relevance_fn, 8.0, 5), ref)
        assert not token.exists()  # the wedge actually fired

    def test_monitor_restarts_crashed_worker(
        self, bundle, cluster_db, relevance_fn, reference,
    ):
        with ReplicatedIndex.open(
            bundle, cluster_db, StarDistance(), replicas=2,
            heartbeat_s=0.1,
        ) as rep:
            handle = rep.supervisor.groups[0][0]
            first_generation = handle.generation
            handle.proc.kill()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if handle.alive and handle.generation > first_generation:
                    break
                time.sleep(0.05)
            assert handle.alive and handle.generation > first_generation
            # The restarted fleet still answers identically.
            ref = reference[(8.0, 5)]
            _assert_identical(rep.query(relevance_fn, 8.0, 5), ref)


def test_stop_lets_every_worker_exit_on_its_own(cluster_db, tmp_path):
    """``Supervisor.stop()`` closes the pairs and every worker sees EOF:
    clean exits, no 1 s join timeout followed by a kill per worker (the
    forked children used to keep the coordinator end of their own pair)."""
    manifest = build_shards(
        cluster_db, StarDistance(), num_shards=2, out_dir=tmp_path, seed=7,
        **BUILD,
    )
    rep = ReplicatedIndex.open(manifest, cluster_db, StarDistance(), replicas=2)
    procs = [h.proc for group in rep.supervisor.groups for h in group]
    assert len(procs) == 4 and all(proc.is_alive() for proc in procs)
    rep.query(quartile_relevance(cluster_db, quantile=0.5), 8.0, 3)
    started = time.monotonic()
    rep.close()
    elapsed = time.monotonic() - started
    assert [proc.exitcode for proc in procs] == [0, 0, 0, 0]
    assert elapsed < 1.0, f"stop() took {elapsed:.2f}s for 4 workers"


def _private_bundle(bundle, tmp_path):
    """Copy the shared bundle so a test can destroy artifacts safely."""
    import shutil

    target = tmp_path / "bundle"
    shutil.copytree(Path(bundle).parent, target)
    return target / Path(bundle).name


@pytest.mark.parametrize("attempt", [0, 1, 4, 5, 6, 200])
def test_restart_backoff_doubles_jitters_upward_and_caps(attempt):
    """A restart waits at least ``min(cap, base · 2^attempt)`` and at most
    ``jitter`` above that — never more than ``cap · (1 + jitter)``."""
    floor = min(RESTART_CAP_S, RESTART_BASE_S * 2.0 ** attempt)
    for _ in range(50):
        delay = restart_delay(attempt)
        assert floor <= delay <= floor * (1.0 + RESTART_JITTER)
        assert delay <= RESTART_CAP_S * (1.0 + RESTART_JITTER)


class TestGroupDown:
    def test_whole_group_down_degrades_to_partial(
        self, bundle, cluster_db, relevance_fn, tmp_path,
    ):
        """One whole group down leaves the cluster only partially up: the
        other groups keep serving, but no query is answered over the
        survivors — it fails typed and fast, in process and on the wire."""
        from repro.service import QueryRequest, QueryService

        bundle = _private_bundle(bundle, tmp_path)
        with ReplicatedIndex.open(
            bundle, cluster_db, StarDistance(), replicas=2,
            op_timeout_s=2.0,
        ) as rep:
            # Make shard 0 unrecoverable (artifact gone → respawn fails
            # its handshake), then kill its whole group.
            artifact = rep.manifest.artifact_path(0, Path(bundle).parent)
            os.unlink(artifact)
            for handle in rep.supervisor.groups[0]:
                rep.supervisor.report_failure(handle)
            started = time.monotonic()
            # No answer over the surviving shards: the query fails typed.
            with pytest.raises(ShardUnavailableError) as excinfo:
                rep.query(relevance_fn, 8.0, 5)
            assert excinfo.value.shard_id == 0
            assert time.monotonic() - started < 30.0  # failed, not hung
            assert not rep.supervisor.live(0)
            assert all(
                rep.supervisor.live(s) for s in range(1, rep.num_shards)
            )
            with QueryService(rep) as svc:
                response = svc.call(QueryRequest(id=1, theta=8.0, k=5))
                assert response["ok"] is False
                assert response["error"]["code"] == "query_failed"
                assert (
                    response["error"]["exception_type"]
                    == "ShardUnavailableError"
                )
                assert svc.journal.stats()["crashes"] == 1

    def test_all_groups_down_still_answers(
        self, bundle, cluster_db, relevance_fn, tmp_path,
    ):
        """Every group down: each query fails typed (never an empty
        answer), and the service still answers every request."""
        from repro.service import QueryRequest, QueryService

        bundle = _private_bundle(bundle, tmp_path)
        with ReplicatedIndex.open(
            bundle, cluster_db, StarDistance(), replicas=1,
            op_timeout_s=2.0,
        ) as rep:
            base = Path(bundle).parent
            for shard_id in range(rep.num_shards):
                os.unlink(rep.manifest.artifact_path(shard_id, base))
            for group in rep.supervisor.groups:
                for handle in group:
                    rep.supervisor.report_failure(handle)
            with pytest.raises(ShardUnavailableError):
                rep.query(relevance_fn, 8.0, 5)
            with QueryService(rep) as svc:
                for request_id in (1, 2):
                    response = svc.call(
                        QueryRequest(id=request_id, theta=8.0, k=5)
                    )
                    assert response["ok"] is False
                    assert response["error"]["code"] == "query_failed"
                pong = svc.call(QueryRequest(id=3, op="ping"))
                assert pong["ok"] is True and pong["result"]["pong"] is True


# ---------------------------------------------------------------------------
# Malformed / oversized frames (fake worker on a socketpair)
# ---------------------------------------------------------------------------
class _StubSupervisor:
    """Just enough Supervisor surface for the router: live + failures."""

    def __init__(self, handles, max_frame_bytes=wire.MAX_FRAME_BYTES):
        self.replicas = len(handles)
        self.max_frame_bytes = max_frame_bytes
        self.handles = handles
        self.failures = []

    def live(self, shard_id):
        return [h for h in self.handles if h.alive]

    def report_failure(self, handle):
        handle.mark_dead()
        self.failures.append(handle)


def _fake_worker(responses):
    """A WorkerHandle whose 'process' is an in-test thread.

    ``responses(request) -> bytes`` decides each raw reply; the thread
    exits on EOF."""
    parent, child = socket.socketpair()
    handle = WorkerHandle(0, 0)
    handle.sock = parent
    handle.reader = parent.makefile("rb")
    handle.alive = True

    def serve():
        reader = child.makefile("rb")
        try:
            while True:
                line = reader.readline()
                if not line:
                    return
                try:
                    child.sendall(responses(json.loads(line)))
                except OSError:
                    return
        finally:
            reader.close()
            child.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return handle


def _good_worker():
    return _fake_worker(
        lambda req: (json.dumps(
            {"ok": True, "r": {"pong": True, "echo": req.get("op")}}
        ) + "\n").encode()
    )


class TestMalformedFrames:
    def test_garbage_frame_is_typed_and_counted_once(self):
        evil = _fake_worker(lambda req: b"this is not json\n")
        with obs.observe() as observation:
            with pytest.raises(ReplicaProtocolError):
                evil.call({"op": "ping"}, timeout=5.0)
            counters = observation.stats()["counters"]
        assert counters["replica.protocol_errors"] == 1
        assert not evil.alive  # poisoned, never reused

    def test_oversized_frame_is_typed_and_counted_once(self):
        evil = _fake_worker(
            lambda req: b'{"ok": true, "r": {"pad": "'
            + b"x" * 4096 + b'"}}\n'
        )
        with obs.observe() as observation:
            with pytest.raises(ReplicaProtocolError, match="exceeds"):
                evil.call({"op": "ping"}, timeout=5.0, max_frame=1024)
            counters = observation.stats()["counters"]
        assert counters["replica.protocol_errors"] == 1

    def test_router_fails_over_on_malformed_frame(self):
        evil = _fake_worker(lambda req: b"\x00\xff garbage\n")
        good = _good_worker()
        supervisor = _StubSupervisor([evil, good])
        router = ReplicaRouter(supervisor, op_timeout_s=5.0)
        with obs.observe() as observation:
            result = router.call(0, {"op": "ping"})
            counters = observation.stats()["counters"]
        assert result["echo"] == "ping"  # the good sibling answered
        assert supervisor.failures == [evil]
        assert counters["replica.protocol_errors"] == 1
        assert counters["replica.failovers"] == 1

    def test_router_fails_over_on_non_object_result(self):
        evil = _fake_worker(
            lambda req: b'{"ok": true, "r": [1, 2, 3]}\n'
        )
        good = _good_worker()
        supervisor = _StubSupervisor([evil, good])
        router = ReplicaRouter(supervisor, op_timeout_s=5.0)
        result = router.call(0, {"op": "ping"})
        assert result["echo"] == "ping"
        assert supervisor.failures == [evil]

    def test_group_unavailable_when_all_replicas_corrupt(self):
        evil_a = _fake_worker(lambda req: b"nope\n")
        evil_b = _fake_worker(lambda req: b"also nope\n")
        supervisor = _StubSupervisor([evil_a, evil_b])
        router = ReplicaRouter(supervisor, op_timeout_s=5.0)
        with pytest.raises(ShardUnavailableError) as excinfo:
            router.call(0, {"op": "ping"})
        assert excinfo.value.shard_id == 0
        assert excinfo.value.causes  # transport causes recorded

    def test_peer_exit_is_replica_dead(self):
        def die(request):
            raise OSError("worker died mid-op")  # serve loop closes the pipe

        dead = _fake_worker(die)
        with pytest.raises(ReplicaDead):
            dead.call({"op": "ping"}, timeout=5.0)
        assert not dead.alive
        assert isinstance(ReplicaDead("x"), ReplicaUnreachable)


# ---------------------------------------------------------------------------
# Wire helpers
# ---------------------------------------------------------------------------
class TestWire:
    def test_words_round_trip(self):
        words = np.array([0, 2**63, 1234567], dtype=np.uint64)
        text = wire.words_to_wire(words)
        back = wire.words_from_wire(text, words.size)
        assert np.array_equal(words, back)

    def test_word_count_mismatch_is_typed(self):
        words = np.array([1, 2], dtype=np.uint64)
        text = wire.words_to_wire(words)
        with pytest.raises(ReplicaProtocolError):
            wire.words_from_wire(text, 3)

    def test_bad_hex_is_typed(self):
        with pytest.raises(ReplicaProtocolError):
            wire.words_from_wire("zz-not-hex", 1)


# ---------------------------------------------------------------------------
# SIGTERM / SIGINT graceful drain (satellite 1)
# ---------------------------------------------------------------------------
def _spawn_serve(db_path, *flags, stderr):
    """``repro serve`` on the stdin transport, pipes held by the caller."""
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(db_path), *flags],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
        env=env, text=True,
    )


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_serve_signal_drains_gracefully(tmp_path, signum):
    """``repro serve`` on stdin: a stop signal mid-request still answers
    everything admitted, prints the drain report, and exits 0."""
    db = random_database(seed=21, size=30)
    db_path = tmp_path / "db.jsonl"
    save_database(db, db_path)

    proc = _spawn_serve(db_path, "--concurrency", "1", stderr=subprocess.PIPE)
    try:
        requests = [
            {"id": i, "op": "query", "v": 1, "theta": 8.0, "k": 3,
             "quantile": 0.5}
            for i in range(2)
        ]
        for request in requests:
            proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.flush()
        # First response proves the index is built and a request is in
        # flight territory; the signal lands while stdin is still open.
        first = json.loads(proc.stdout.readline())
        assert first["ok"], first
        proc.send_signal(signum)
        # Keep reading through the buffered reader the first line came
        # from: communicate() reads the raw descriptor, and a second
        # response that readline() had already buffered would be lost.
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            proc.stdin.close()
            out = proc.stdout.read()
            err = proc.stderr.read()
            proc.wait()
        finally:
            watchdog.cancel()
    except Exception:
        proc.kill()
        raise
    responses = [json.loads(line) for line in out.splitlines() if line.strip()]
    answered = {r["id"] for r in responses} | {first["id"]}
    assert answered == {0, 1}  # everything admitted was answered
    assert all(r["ok"] for r in responses)
    assert "drained:" in err
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# stdin transport: a worker restart forks under a blocked readline()
# ---------------------------------------------------------------------------
def _child_pids(parent: int) -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we were listing
        if int(stat.rsplit(")", 1)[1].split()[1]) == parent:
            pids.append(int(entry))
    return pids


def test_stdin_transport_survives_a_worker_restart(bundle, cluster_db, tmp_path):
    """``repro serve --replicas`` on stdin with the client holding the
    pipe open: a killed worker is re-forked while the main thread sits in
    ``readline()``.  Read through ``sys.stdin``, that child inherited the
    buffer lock held and deadlocked in multiprocessing's ``_close_stdin``;
    the next answer waited out ``spawn_timeout_s`` and came back degraded."""
    db_path = tmp_path / "db.jsonl"
    save_database(cluster_db, db_path)
    proc = _spawn_serve(
        db_path, "--shards", str(bundle), "--replicas", "1",
        stderr=subprocess.DEVNULL,
    )
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()

    def ask(request):
        proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.flush()
        return json.loads(proc.stdout.readline())

    query = {"op": "query", "v": 1, "theta": 8.0, "k": 3, "quantile": 0.5}
    try:
        first = ask({"id": 1, **query})
        assert first["ok"] and not first["result"]["degraded"], first
        workers = set(_child_pids(proc.pid))
        os.kill(min(workers), signal.SIGKILL)
        # The monitor notices and re-forks while the server is idle in
        # readline(); ask again only once the replacement process exists.
        give_up = time.monotonic() + 30.0
        while not set(_child_pids(proc.pid)) - workers:
            assert time.monotonic() < give_up, "the worker was never re-forked"
            time.sleep(0.05)
        started = time.monotonic()
        second = ask({"id": 2, **query})
        elapsed = time.monotonic() - started
        stats = ask({"id": 3, "op": "stats"})
        proc.stdin.close()
        assert proc.wait(timeout=30) == 0
    finally:
        watchdog.cancel()
        proc.kill()
    assert elapsed < 10.0, f"second answer took {elapsed:.1f}s"
    assert second["ok"] and not second["result"]["degraded"], second
    assert second["result"]["answer"] == first["result"]["answer"]
    replica = stats["result"]["index"]["replica"]
    assert replica["restarts"] == 1
    assert replica["live"] == [1, 1, 1]
