"""Replicated multi-process serving: bit-identity, failover, fleet loss.

The load-bearing claims under test:

* A replicated cluster is **R processes whatever S**, each serving the
  whole bundle from the frame the cluster read — no worker reads a shard
  artifact.
* It answers **bit-identically** to the in-process ``ShardedIndex`` over
  the same bundle — including while replicas are being killed and wedged
  mid-query, and after every worker was killed and restarted.
* **No replica live and none restarting** fails the query with a typed
  ``ShardUnavailableError`` (``query_failed`` on the wire) after about
  ``op_timeout_s`` — never a hang, never past the query's deadline.
* A replica answering with **malformed or oversized frames** costs one
  typed retry of the query (counted once), never a coordinator crash.
* Each query attempt pins **one replica** and sends it every frame; a
  failure re-runs the whole query, and concurrent queries spread over the
  replicas.
* ``repro serve`` turns **SIGTERM/SIGINT** into the graceful-drain path,
  answering everything already admitted before exiting 0.
"""

from __future__ import annotations

import json
import multiprocessing
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
from repro.replica import ReplicatedIndex, ShardUnavailableError
from repro.replica import supervisor as supervisor_module
from repro.replica import wire
from repro.replica.errors import (
    ReplicaDead,
    ReplicaProtocolError,
    ReplicaUnreachable,
)
from repro.replica.supervisor import (
    RESTART_BASE_S,
    RESTART_CAP_S,
    RESTART_JITTER,
    Supervisor,
    WorkerHandle,
    restart_delay,
)
from repro.replica.worker import SESSION_CAP
from repro.resilience import Deadline, faults
from repro.resilience.faults import FaultPlan
from repro.shard import ShardedIndex, ShardManifest, build_shards

BUILD = dict(num_vantage_points=6)


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
        assert len(workers) == 2  # one number per live worker
        assert all(rss > 0.0 for rss in workers)
        # A dead worker has no entry; its sibling keeps its own.
        victim = rep.supervisor.handles[0]
        victim.next_restart_at = float("inf")  # the monitor leaves it down
        victim.kill()
        assert len(rep.supervisor.stats()["rss_mb"]) == 1
        # Where /proc cannot be read the section is absent, not zeroed.
        monkeypatch.setattr(obs, "process_memory", lambda pid="self": None)
        assert "process" not in service.stats()
        assert rep.supervisor.stats()["rss_mb"] == []


@pytest.mark.parametrize("num_shards", [2, 3])
def test_the_fleet_is_r_processes_whatever_s(
    cluster_db, relevance_fn, tmp_path, num_shards,
):
    """S = 2 or 3 shards, R = 2: two worker processes, each answering for
    the whole bundle (one session per query, on one of them)."""
    manifest = build_shards(
        cluster_db, StarDistance(), num_shards=num_shards, out_dir=tmp_path,
        seed=7, **BUILD,
    )
    want = ShardedIndex.load(manifest, cluster_db, StarDistance()).query(
        relevance_fn, 8.0, 5
    )
    with ReplicatedIndex.open(
        manifest, cluster_db, StarDistance(), replicas=2,
    ) as rep:
        workers = [
            proc for proc in multiprocessing.active_children()
            if proc.name.startswith("repro-replica")
        ]
        assert len(workers) == len(rep.supervisor.handles) == 2
        assert rep.supervisor.stats()["live"] == 2
        assert rep.num_shards == num_shards
        _assert_identical(rep.query(relevance_fn, 8.0, 5), want)


class TestChaosKills:
    def test_kill_churn_keeps_answers_identical(
        self, bundle, cluster_db, relevance_fn, reference,
    ):
        # Replica 0 dies every 12 ops, forever (each restarted process
        # serves 11 ops then dies again).  Replica 1 never dies, so the
        # cluster stays available and queries re-run as kills land.
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
        assert stats["spawns"] > 2  # initial fleet was 2
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
            handle = rep.supervisor.handles[0]
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

    def test_every_worker_killed_answers_after_the_restart(
        self, bundle, cluster_db, relevance_fn, reference, tmp_path,
    ):
        """Every worker killed at once is a restart window: the query
        waits for the monitor's restart and answers bit-identically.  The
        bundle's artifacts are gone by then — workers read none, they
        serve the frame the cluster read at open."""
        bundle = _private_bundle(bundle, tmp_path)
        with ReplicatedIndex.open(
            bundle, cluster_db, StarDistance(), replicas=2,
            heartbeat_s=0.1,
        ) as rep:
            for path in Path(bundle).parent.glob("shard-*.npz"):
                path.unlink()
            for handle in rep.supervisor.handles:
                handle.proc.kill()
                handle.proc.join(10)
            for (theta, k), ref in reference.items():
                _assert_identical(rep.query(relevance_fn, theta, k), ref)
            stats = rep.supervisor.stats()
        assert stats["restarts"] >= 1 and stats["spawns"] >= 3


def test_a_monitor_error_is_counted_warned_and_survived(
    bundle, cluster_db, monkeypatch,
):
    """An exception in the monitor's per-worker check is counted
    (``replica.monitor_errors``) and warned about, and the monitor keeps
    restarting crashed workers afterwards."""
    check = Supervisor._check
    raised = []

    def failing_once(self, handle):
        if not raised:
            raised.append(handle)
            raise RuntimeError("monitor bug")
        return check(self, handle)

    monkeypatch.setattr(Supervisor, "_check", failing_once)
    with obs.observe() as observation, pytest.warns(
        RuntimeWarning, match="monitor bug",
    ):
        with ReplicatedIndex.open(
            bundle, cluster_db, StarDistance(), replicas=1, heartbeat_s=0.05,
        ) as rep:
            deadline = time.monotonic() + 10.0
            while not raised and time.monotonic() < deadline:
                time.sleep(0.02)
            rep.supervisor.handles[0].proc.kill()
            while rep.supervisor.stats()["restarts"] == 0 and (
                time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert rep.supervisor.stats()["restarts"] >= 1
        counters = observation.stats()["counters"]
    assert counters["replica.monitor_errors"] == 1


def test_stop_lets_every_worker_exit_on_its_own(cluster_db, tmp_path):
    """``Supervisor.stop()`` closes the pairs and every worker sees EOF:
    clean exits, no 1 s join timeout followed by a kill per worker (the
    forked children used to keep the coordinator end of their own pair)."""
    manifest = build_shards(
        cluster_db, StarDistance(), num_shards=2, out_dir=tmp_path, seed=7,
        **BUILD,
    )
    rep = ReplicatedIndex.open(manifest, cluster_db, StarDistance(), replicas=2)
    procs = [h.proc for h in rep.supervisor.handles]
    assert len(procs) == 2 and all(proc.is_alive() for proc in procs)
    rep.query(quartile_relevance(cluster_db, quantile=0.5), 8.0, 3)
    started = time.monotonic()
    rep.close()
    elapsed = time.monotonic() - started
    assert [proc.exitcode for proc in procs] == [0, 0]
    assert elapsed < 1.0, f"stop() took {elapsed:.2f}s for 2 workers"


def _private_bundle(bundle, tmp_path):
    """Copy the shared bundle so a test can delete its artifacts."""
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


def _no_restarts(monkeypatch) -> None:
    """From here on a (re)forked worker exits before its ``hello``: every
    restart fails its handshake and backs off."""
    monkeypatch.setattr(
        supervisor_module, "worker_main", lambda *args, **kwargs: None
    )


class TestGroupDown:
    def test_no_restart_fails_typed_after_the_op_timeout(
        self, bundle, cluster_db, relevance_fn, monkeypatch,
    ):
        """Every worker down and none can restart: a query waits for a
        restart for ``op_timeout_s`` — less under a shorter deadline —
        then fails typed, in process and on the wire."""
        from repro.service import QueryRequest, QueryService

        with ReplicatedIndex.open(
            bundle, cluster_db, StarDistance(), replicas=2,
            op_timeout_s=1.0, heartbeat_s=0.1,
        ) as rep:
            _no_restarts(monkeypatch)
            for handle in rep.supervisor.handles:
                rep.supervisor.report_failure(handle)
            started = time.monotonic()
            with pytest.raises(ShardUnavailableError):
                rep.query(relevance_fn, 8.0, 5)
            waited = time.monotonic() - started
            assert 1.0 <= waited < 10.0  # waited for a restart, not hung
            started = time.monotonic()
            with pytest.raises(ShardUnavailableError):
                rep.query(relevance_fn, 8.0, 5, deadline=Deadline(0.2))
            assert time.monotonic() - started < 0.9
            assert not rep.supervisor.live()
            assert rep.supervisor.stats()["restarts"] == 0
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
        self, bundle, cluster_db, relevance_fn, monkeypatch,
    ):
        """The whole fleet down for good: each query fails typed (never
        an empty answer), and the service still answers every request."""
        from repro.service import QueryRequest, QueryService

        with ReplicatedIndex.open(
            bundle, cluster_db, StarDistance(), replicas=1,
            op_timeout_s=0.5,
        ) as rep:
            _no_restarts(monkeypatch)
            for handle in rep.supervisor.handles:
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
def _fake_worker(responses, handle=None):
    """A WorkerHandle whose 'process' is an in-test thread.

    ``responses(request) -> bytes`` decides each raw reply; the thread
    exits on EOF.  Given a cluster's ``handle``, the thread takes over
    that slot (its worker process is killed first)."""
    if handle is None:
        handle = WorkerHandle(0)
    else:
        handle.next_restart_at = float("inf")  # the monitor leaves it be
        handle.kill()
        handle.proc.join(10)
        handle.proc = None
    parent, child = socket.socketpair()
    handle.sock = parent
    handle.reader = parent.makefile("rb")
    handle.last_ok = time.monotonic()
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


def _quiet_cluster(bundle, cluster_db, replicas=2, op_timeout_s=5.0):
    """A cluster whose monitor never ticks during a test: a reported
    worker stays down, so what answered is what the test arranged."""
    return ReplicatedIndex.open(
        bundle, cluster_db, StarDistance(), replicas=replicas,
        heartbeat_s=60.0, op_timeout_s=op_timeout_s,
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

    def test_router_fails_over_on_malformed_frame(
        self, bundle, cluster_db, relevance_fn, reference,
    ):
        """Replica 0 (the one the first pin takes) answers garbage: the
        router reports it and the query re-runs on its sibling, with the
        in-process answer."""
        with _quiet_cluster(bundle, cluster_db) as rep:
            evil = _fake_worker(
                lambda req: b"\x00\xff garbage\n", rep.supervisor.handles[0]
            )
            with obs.observe() as observation:
                got = rep.query(relevance_fn, 8.0, 5)
                counters = observation.stats()["counters"]
            _assert_identical(got, reference[(8.0, 5)])
            assert not evil.alive  # reported, left down by the quiet monitor
        assert counters["replica.protocol_errors"] == 1
        assert counters["replica.failovers"] == 1

    def test_router_fails_over_on_non_object_result(
        self, bundle, cluster_db, relevance_fn, reference,
    ):
        with _quiet_cluster(bundle, cluster_db) as rep:
            evil = _fake_worker(
                lambda req: b'{"ok": true, "r": [1, 2, 3]}\n',
                rep.supervisor.handles[0],
            )
            with obs.observe() as observation:
                got = rep.query(relevance_fn, 8.0, 5)
                counters = observation.stats()["counters"]
            _assert_identical(got, reference[(8.0, 5)])
            assert not evil.alive
        assert counters["replica.protocol_errors"] == 1
        assert counters["replica.failovers"] == 1

    def test_group_unavailable_when_all_replicas_corrupt(
        self, bundle, cluster_db, relevance_fn,
    ):
        with _quiet_cluster(bundle, cluster_db, op_timeout_s=0.5) as rep:
            for handle, reply in zip(
                rep.supervisor.handles, (b"nope\n", b"also nope\n")
            ):
                _fake_worker(lambda req, reply=reply: reply, handle)
            with pytest.raises(ShardUnavailableError) as excinfo:
                rep.query(relevance_fn, 8.0, 5)
        # One transport cause per replica tried, each tried once; the
        # last attempt found none live and no restart came.
        assert len(excinfo.value.causes) == 2

    def test_peer_exit_is_replica_dead(self):
        def die(request):
            raise OSError("worker died mid-op")  # serve loop closes the pipe

        dead = _fake_worker(die)
        with pytest.raises(ReplicaDead):
            dead.call({"op": "ping"}, timeout=5.0)
        assert not dead.alive
        assert isinstance(ReplicaDead("x"), ReplicaUnreachable)


# ---------------------------------------------------------------------------
# Pin and retry: one replica per attempt, a failure re-runs the query
# ---------------------------------------------------------------------------
#: Every op a query attempt may send its worker; the foreign tiers'
#: ``pi_hat`` / ``nbhd`` are gone with the per-shard frontiers.
_SESSION_OPS = {"open", "begin_round", "open_round", "next", "select", "close"}


@pytest.fixture(scope="module")
def bundle_s2(cluster_db, tmp_path_factory):
    out = tmp_path_factory.mktemp("replica-bundle-s2")
    return build_shards(
        cluster_db, StarDistance(), num_shards=2, out_dir=out, seed=7,
        **BUILD,
    )


@pytest.fixture(scope="module")
def reference_s2(bundle_s2, cluster_db, relevance_fn):
    sharded = ShardedIndex.load(bundle_s2, cluster_db, StarDistance())
    refs = {
        (theta, k): sharded.query(relevance_fn, theta, k)
        for theta in (6.0, 8.0) for k in (3, 5)
    }
    sharded.close()
    return refs


def _spy_frames(monkeypatch, before=None):
    """Record ``(replica, sid, payload)`` for every session frame a worker
    handle sends; ``before(handle, payload)`` runs first."""
    frames = []
    lock = threading.Lock()
    call = WorkerHandle.call

    def spying(self, payload, timeout, **kwargs):
        if "sid" in payload:
            with lock:
                frames.append((self.replica_index, payload["sid"], payload))
            if before is not None:
                before(self, payload)
        return call(self, payload, timeout, **kwargs)

    monkeypatch.setattr(WorkerHandle, "call", spying)
    return frames


def _replicas_per_session(frames):
    served = {}
    for replica, sid, _ in frames:
        served.setdefault(sid, set()).add(replica)
    return served


class TestPinAndRetry:
    def test_a_session_stays_on_one_replica_and_opens_once(
        self, bundle_s2, cluster_db, relevance_fn, reference_s2, monkeypatch,
    ):
        with ReplicatedIndex.open(
            bundle_s2, cluster_db, StarDistance(), replicas=2,
        ) as rep:
            frames = _spy_frames(monkeypatch)
            for (theta, k), ref in reference_s2.items():
                _assert_identical(rep.query(relevance_fn, theta, k), ref)
        served = _replicas_per_session(frames)
        # One session per query, whatever S: no retry happened.
        assert len(served) == len(reference_s2)
        # No frame of an attempt reaches a second replica, and none asks
        # for a foreign bound.
        assert all(len(replicas) == 1 for replicas in served.values()), served
        assert {payload["op"] for *_, payload in frames} <= _SESSION_OPS
        for sid in served:
            ops = [payload for _, i, payload in frames if i == sid]
            assert [p["op"] for p in ops].count("open") == 1
            assert ops[0]["op"] == "open"
            first_round = next(p for p in ops if p["op"] == "begin_round")
            assert ops.count(first_round) == 1  # not replayed before itself

    def test_concurrent_queries_spread_reads_over_replicas(
        self, bundle_s2, cluster_db, relevance_fn, reference_s2, monkeypatch,
    ):
        """Two queries in flight at once pin different replicas (the
        second finds one session on replica 0), so both replicas serve
        reads.  The first two opens wait for each other, which keeps both
        queries in flight."""
        meet = threading.Barrier(2, timeout=30)
        opens = []

        def rendezvous(handle, payload):
            if payload["op"] == "open" and len(opens) < 2:
                opens.append(handle.replica_index)
                meet.wait()

        with ReplicatedIndex.open(
            bundle_s2, cluster_db, StarDistance(), replicas=2,
        ) as rep:
            frames = _spy_frames(monkeypatch, rendezvous)
            answers = {}

            def run(key):
                answers[key] = rep.query(relevance_fn, *key)

            keys = [(8.0, 5), (6.0, 3)]
            threads = [threading.Thread(target=run, args=(key,)) for key in keys]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        for key in keys:
            _assert_identical(answers[key], reference_s2[key])
        assert sorted(opens) == [0, 1]
        served = _replicas_per_session(frames)
        assert all(len(replicas) == 1 for replicas in served.values()), served
        readers = {
            replica for replica, _, payload in frames
            if payload["op"] == "next"
        }
        assert readers == {0, 1}

    def test_more_queries_than_session_slots_all_answer_without_retry(
        self, bundle_s2, cluster_db, relevance_fn, reference_s2, monkeypatch,
    ):
        """SESSION_CAP·R + 1 queries started at once: the pin never puts
        more sessions on a replica than its worker keeps, so the last
        query waits for a slot instead of evicting a live session — every
        answer matches and no query re-runs."""
        replicas = 2
        count = SESSION_CAP * replicas + 1
        keys = [list(reference_s2)[i % len(reference_s2)] for i in range(count)]
        start = threading.Barrier(count, timeout=30)
        answers, errors = {}, []

        with ReplicatedIndex.open(
            bundle_s2, cluster_db, StarDistance(), replicas=replicas,
        ) as rep:
            frames = _spy_frames(monkeypatch)

            def run(i):
                start.wait()
                try:
                    answers[i] = rep.query(relevance_fn, *keys[i])
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert rep.supervisor.stats()["restarts"] == 0
        assert not errors, errors
        for i, key in enumerate(keys):
            _assert_identical(answers[i], reference_s2[key])
        assert len({sid for _, sid, _ in frames}) == count  # no retry

    def test_a_forgotten_session_reruns_the_query_and_kills_nothing(
        self, bundle_s2, cluster_db, relevance_fn, reference_s2, monkeypatch,
    ):
        """A worker that answers ``unknown_session`` (it evicted the
        session, or was restarted since the open) is healthy: the query
        re-runs under a fresh session id and no worker is restarted."""
        forgotten = []

        def forget(handle, payload):
            if payload["op"] == "next" and not forgotten:
                forgotten.append(payload["sid"])
                assert handle.call(
                    {"op": "close", "sid": payload["sid"]}, 5.0
                )["ok"]

        with ReplicatedIndex.open(
            bundle_s2, cluster_db, StarDistance(), replicas=2,
        ) as rep:
            frames = _spy_frames(monkeypatch, forget)
            with obs.observe() as observation:
                got = rep.query(relevance_fn, 8.0, 5)
                counters = observation.stats()["counters"]
            handles = rep.supervisor.handles
            assert all(h.alive and h.generation == 1 for h in handles)
            assert rep.supervisor.stats()["restarts"] == 0
        _assert_identical(got, reference_s2[(8.0, 5)])
        assert counters["replica.failovers"] == 1
        assert len({sid for _, sid, _ in frames}) == 2  # one retry


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


def _worker(bundle, cluster_db):
    """A worker object over ``bundle``, as a forked replica builds it."""
    from repro.replica.worker import ShardWorker

    manifest = ShardManifest.load(bundle)
    return ShardWorker(
        cluster_db, StarDistance(), manifest, 0,
        frame=manifest.load_frame(Path(bundle).parent),
    )


def test_worker_has_no_update_op(bundle, cluster_db):
    """Selections reach a worker as ``select`` and coverage as the next
    round's ``cov``; an ``update`` frame is an unknown op, answered with
    ``invalid_request`` before any session is looked up."""
    response = _worker(bundle, cluster_db).handle(
        {"op": "update", "sid": "s", "gid": 0, "idx": [], "vals": "",
         "nbits": 0}
    )
    assert response["ok"] is False
    assert response["error"]["code"] == "invalid_request"
    assert "unknown op 'update'" in response["error"]["message"]


def test_worker_serves_the_whole_bundle_and_no_foreign_tier(
    bundle, cluster_db, relevance_fn,
):
    """One worker holds every relevant graph in one index (one engine, no
    second one for strangers), and the foreign tiers' ops are unknown."""
    worker = _worker(bundle, cluster_db)
    assert worker.global_engine is None
    assert worker.index.engine is worker.index.index.engine
    opened = worker.handle({
        "op": "open", "sid": "s", "dims": list(relevance_fn.dims),
        "threshold": relevance_fn.threshold, "theta": 8.0,
    })
    relevant = cluster_db.relevant_indices(relevance_fn)
    assert opened["r"] == {"relevant": relevant.size, "min_gid": relevant[0]}
    for op in ("pi_hat", "nbhd"):
        response = worker.handle({"op": op, "sid": "s", "gid": 0})
        assert response["error"]["code"] == "invalid_request"
        assert f"unknown op {op!r}" in response["error"]["message"]


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
    assert replica["live"] == 1
