"""Tests for the query service layer (repro.service).

Covers the wire protocol, admission control and shedding, the read-write
latch, hot index reload with corrupt-candidate rollback, per-query fault
isolation, graceful drain, the line transport, and the chaos acceptance
scenario from the roadmap: one worker crash + one slow query + one
corrupt reload artifact, with the service shedding typed ``Overloaded``,
never crashing, draining within grace, and serving results bit-identical
to direct ``NBIndex.query`` for admitted non-degraded requests.
"""

from __future__ import annotations

import json
import io
import threading
import time

import pytest

from repro.ged import StarDistance
from repro.graphs import quartile_relevance
from repro.index import NBIndex, save_index
from repro.resilience import faults
from repro.resilience.faults import FaultPlan
from repro.service import (
    AdmissionController,
    CrashJournal,
    IndexManager,
    InvalidRequest,
    Overloaded,
    QueryRequest,
    QueryService,
    ReadWriteLatch,
    ReloadFailed,
    ServiceClosed,
    ServiceConfig,
    parse_request,
    serve_lines,
)
from repro.service.server import serve_tcp
from tests.conftest import random_database

BUILD = dict(num_vantage_points=5, seed=7)


def _build_index(db):
    return NBIndex.build(db, StarDistance(), **BUILD)


@pytest.fixture(scope="module")
def service_db():
    return random_database(seed=21, size=30)


@pytest.fixture(scope="module")
def service_index(service_db):
    return _build_index(service_db)


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_minimal_query(self):
        req = parse_request('{"id": 1, "theta": 8.0, "k": 5}')
        assert req.op == "query" and req.theta == 8.0 and req.k == 5
        assert req.quantile == 0.75 and req.dims is None

    def test_full_query(self):
        req = parse_request(json.dumps({
            "id": "a", "op": "query", "theta": 4, "k": 2, "quantile": 0.5,
            "dims": [0, 1], "seed": 3, "timeout_ms": 250, "unknown": True,
        }))
        assert req.dims == (0, 1) and req.timeout_ms == 250
        assert req.extra == {"unknown": True}

    @pytest.mark.parametrize("line", [
        "not json",
        "[1, 2]",
        '{"op": "explode"}',
        '{"op": "query"}',                        # missing theta/k
        '{"op": "query", "theta": -1, "k": 2}',   # bad theta
        '{"op": "query", "theta": 2, "k": 0}',    # bad k
        '{"op": "query", "theta": 2, "k": 2, "quantile": 1.5}',
        '{"op": "query", "theta": 2, "k": 2, "timeout_ms": -5}',
        '{"op": "query", "theta": 2, "k": 2, "dims": ["x"]}',
        '{"op": "query", "theta": true, "k": 2}',  # bool is not a number
        '{"op": "reload", "path": 7}',
    ])
    def test_invalid_requests(self, line):
        with pytest.raises(InvalidRequest):
            parse_request(line)

    def test_oversized_request_is_rejected_before_admission(self):
        line = json.dumps({"op": "query", "theta": 2, "k": 2,
                           "pad": "x" * 4096})
        with pytest.raises(InvalidRequest, match="exceeds"):
            parse_request(line, max_bytes=1024)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_sheds_with_typed_overloaded_when_full(self):
        ctl = AdmissionController(max_queue=2, max_concurrency=1)
        ctl.admit("a")
        ctl.admit("b")
        with pytest.raises(Overloaded) as excinfo:
            ctl.admit("c")
        assert excinfo.value.retry_after_s > 0
        assert excinfo.value.to_wire()["code"] == "overloaded"
        assert ctl.stats()["shed"] == 1
        # Shedding did not grow the queue.
        assert ctl.depth == 2

    def test_closed_rejects_new_but_keeps_queued(self):
        ctl = AdmissionController(max_queue=4)
        ticket = ctl.admit("a")
        ctl.close()
        with pytest.raises(ServiceClosed):
            ctl.admit("b")
        assert ctl.next() is ticket      # queued work still drains
        assert ctl.next() is None        # then workers are told to exit

    def test_deadline_budget_starts_at_admission(self):
        ctl = AdmissionController(max_queue=2, default_timeout_ms=10_000)
        ticket = ctl.admit("a")
        assert ticket.deadline is not None
        assert 0 < ticket.deadline.remaining() <= 10.0
        override = ctl.admit("b", timeout_ms=50)
        assert override.deadline.remaining() <= 0.05

    def test_cancel_pending_resolves_each_ticket(self):
        ctl = AdmissionController(max_queue=4)
        tickets = [ctl.admit(i) for i in range(3)]
        count = ctl.cancel_pending(lambda t: {"cancelled": t.request})
        assert count == 3
        assert [t.wait(1.0) for t in tickets] == [
            {"cancelled": 0}, {"cancelled": 1}, {"cancelled": 2}]

    def test_retry_after_tracks_service_time(self):
        ctl = AdmissionController(max_queue=1, max_concurrency=1)
        for _ in range(20):
            ctl.note_completion(1.0)   # slow service -> bigger hint
        ctl.admit("a")
        with pytest.raises(Overloaded) as excinfo:
            ctl.admit("b")
        assert excinfo.value.retry_after_s > 0.5


# ---------------------------------------------------------------------------
# Read-write latch
# ---------------------------------------------------------------------------
class TestReadWriteLatch:
    def test_concurrent_readers(self):
        latch = ReadWriteLatch()
        inside = threading.Barrier(3, timeout=5.0)

        def reader():
            with latch.read():
                inside.wait()   # all three must be inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5.0)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers_and_writers(self):
        latch = ReadWriteLatch()
        order = []
        in_write = threading.Event()

        def writer():
            with latch.write():
                in_write.set()
                time.sleep(0.05)
                order.append("write")

        def reader():
            in_write.wait(5.0)
            with latch.read():
                order.append("read")

        tw = threading.Thread(target=writer)
        tr = threading.Thread(target=reader)
        tw.start()
        tr.start()
        tw.join(5.0)
        tr.join(5.0)
        assert order == ["write", "read"]

    def test_waiting_writer_blocks_new_readers(self):
        latch = ReadWriteLatch()
        reader_in = threading.Event()
        release_reader = threading.Event()
        results = []

        def long_reader():
            with latch.read():
                reader_in.set()
                release_reader.wait(5.0)

        def writer():
            with latch.write():
                results.append("write")

        def late_reader():
            with latch.read():
                results.append("read")

        t1 = threading.Thread(target=long_reader)
        t1.start()
        reader_in.wait(5.0)
        t2 = threading.Thread(target=writer)
        t2.start()
        time.sleep(0.05)  # let the writer reach the waiting state
        t3 = threading.Thread(target=late_reader)
        t3.start()
        time.sleep(0.05)
        assert results == []          # late reader queued behind the writer
        release_reader.set()
        for t in (t1, t2, t3):
            t.join(5.0)
        assert results == ["write", "read"]


# ---------------------------------------------------------------------------
# Hot reload
# ---------------------------------------------------------------------------
class TestHotReload:
    def test_reload_swaps_and_bumps_generation(self, service_db, tmp_path):
        index = _build_index(service_db)
        replacement = NBIndex.build(
            service_db, StarDistance(), num_vantage_points=5,
            seed=13,
        )
        art = tmp_path / "idx.npz"
        save_index(replacement, art)
        manager = IndexManager(index)
        assert manager.generation == 0
        generation = manager.reload(art)
        assert generation == 1
        assert manager.index is not index

    def test_corrupt_candidate_rolls_back(self, service_db, tmp_path):
        index = _build_index(service_db)
        art = tmp_path / "idx.npz"
        save_index(index, art)
        art.write_bytes(art.read_bytes()[:128])  # torn artifact
        manager = IndexManager(index)
        with pytest.raises(ReloadFailed):
            manager.reload(art)
        assert manager.index is index            # previous index serving
        assert manager.generation == 0
        assert manager.stats()["reload_failures"] == 1

    def test_maybe_reload_consumes_corrupt_fingerprint(
        self, service_db, tmp_path
    ):
        index = _build_index(service_db)
        art = tmp_path / "watched.npz"
        save_index(index, art)
        manager = IndexManager(index, watch_path=art)
        assert manager.maybe_reload() is False   # unchanged artifact
        art.write_bytes(b"garbage")
        assert manager.maybe_reload() is False   # corrupt -> rollback
        assert manager.reload_failures == 1
        assert manager.maybe_reload() is False   # reported once, not re-tried
        assert manager.reload_failures == 1

    def test_maybe_reload_picks_up_new_artifact(self, service_db, tmp_path):
        index = _build_index(service_db)
        art = tmp_path / "watched.npz"
        save_index(index, art)
        manager = IndexManager(index, watch_path=art)
        replacement = NBIndex.build(
            service_db, StarDistance(), num_vantage_points=5,
            seed=13,
        )
        save_index(replacement, art)
        assert manager.maybe_reload() is True
        assert manager.generation == 1

    def test_inflight_query_unaffected_by_swap(self, service_db, tmp_path):
        index = _build_index(service_db)
        replacement = NBIndex.build(
            service_db, StarDistance(), num_vantage_points=5,
            seed=13,
        )
        art = tmp_path / "idx.npz"
        save_index(replacement, art)
        manager = IndexManager(index)
        in_read = threading.Event()
        release = threading.Event()
        seen = []

        def reader():
            with manager.acquire() as current:
                in_read.set()
                release.wait(5.0)
                seen.append(current)

        t = threading.Thread(target=reader)
        t.start()
        in_read.wait(5.0)
        swapper = threading.Thread(target=manager.reload, args=(art,))
        swapper.start()
        time.sleep(0.05)
        assert manager.generation == 0   # swap waits for the reader
        release.set()
        t.join(5.0)
        swapper.join(5.0)
        assert seen == [index]           # reader finished on the old index
        assert manager.generation == 1


# ---------------------------------------------------------------------------
# Crash journal / fault isolation
# ---------------------------------------------------------------------------
class TestFaultIsolation:
    def test_poisoned_query_is_journaled_and_worker_survives(
        self, service_index, tmp_path, monkeypatch
    ):
        crash_log = tmp_path / "crashes.jsonl"
        config = ServiceConfig(max_concurrency=1, crash_log=str(crash_log))
        with QueryService(service_index, config=config) as svc:
            # Poison exactly one request through the relevance function.
            import repro.service.server as server_module

            real = server_module.quartile_relevance
            calls = {"n": 0}

            def poisoned(database, dims=None, quantile=0.75):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("poisoned relevance")
                return real(database, dims=dims, quantile=quantile)

            monkeypatch.setattr(server_module, "quartile_relevance", poisoned)
            bad = svc.call(QueryRequest(id=1, theta=8.0, k=2, seed=41))
            assert bad["ok"] is False
            assert bad["error"]["code"] == "query_failed"
            assert bad["error"]["exception_type"] == "RuntimeError"
            # The same worker answers the next query.
            good = svc.call(QueryRequest(id=2, theta=8.0, k=2))
            assert good["ok"] is True
            entry = svc.journal.last()
            assert entry["exception_type"] == "RuntimeError"
            assert entry["request"]["seed"] == 41
            assert any("poisoned relevance" in ln for ln in entry["traceback"])
        lines = crash_log.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["exception_type"] == "RuntimeError"

    def test_journal_without_path_keeps_tail(self):
        journal = CrashJournal()
        journal.record(QueryRequest(id=1, theta=2.0, k=1), ValueError("boom"))
        assert journal.stats()["crashes"] == 1
        assert journal.last()["message"] == "boom"


# ---------------------------------------------------------------------------
# Service end-to-end
# ---------------------------------------------------------------------------
class TestQueryService:
    def test_results_bit_identical_to_direct_query(
        self, service_db, service_index
    ):
        q = quartile_relevance(service_db)
        direct = service_index.query(q, 8.0, 3)
        with QueryService(service_index) as svc:
            response = svc.call(QueryRequest(id=1, theta=8.0, k=3))
        result = response["result"]
        assert result["answer"] == [int(g) for g in direct.answer]
        assert result["gains"] == [int(g) for g in direct.gains]
        assert result["pi"] == pytest.approx(direct.pi)
        assert result["degraded"] is False

    def test_invalid_dims_rejected(self, service_index):
        with QueryService(service_index) as svc:
            response = svc.call(
                QueryRequest(id=1, theta=8.0, k=2, dims=(99,)))
        assert response["error"]["code"] == "invalid_request"

    def test_expired_deadline_cancelled_not_started(self, service_index):
        with QueryService(service_index) as svc:
            response = svc.call(
                QueryRequest(id=1, theta=8.0, k=2, timeout_ms=0))
        assert response["error"]["code"] == "deadline_expired"

    def test_drain_cancels_queued_with_typed_overloaded(self, service_index):
        config = ServiceConfig(max_concurrency=1, max_queue=8)
        svc = QueryService(service_index, config=config).start()
        with faults.injected(FaultPlan(slow_sites={"service.query": 0.4},
                                       slow_limit=1)):
            tickets = [
                svc.submit(QueryRequest(id=i, theta=8.0, k=2))
                for i in range(6)
            ]
            report = svc.drain(grace_s=0.05)
        assert report["cancelled"] >= 1
        responses = [t.wait(5.0) for t in tickets]
        assert all(r is not None for r in responses)
        cancelled = [r for r in responses if not r["ok"]]
        assert cancelled
        assert all(r["error"]["code"] == "overloaded" for r in cancelled)
        # Drain is idempotent and the second call reports clean.
        assert svc.drain()["cancelled"] == 0

    def test_stats_shape(self, service_index):
        with QueryService(service_index) as svc:
            svc.call(QueryRequest(id=1, theta=8.0, k=2))
            stats = svc.stats()
        assert stats["admission"]["admitted"] == 1
        assert "breaker" not in stats
        assert stats["index"]["generation"] == 0


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------
class TestTransports:
    def test_serve_lines_orders_responses_and_drains(self, service_index):
        svc = QueryService(service_index).start()
        lines = [
            json.dumps({"id": 1, "theta": 8.0, "k": 2}),
            "garbage",
            json.dumps({"id": 3, "op": "ping"}),
            json.dumps({"id": 4, "theta": -1, "k": 2}),
        ]
        out = io.StringIO()
        report = serve_lines(svc, iter(f"{ln}\n" for ln in lines), out)
        assert report["served"] == 4 and report["clean"]
        responses = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert [r["id"] for r in responses] == [1, None, 3, 4]
        assert responses[0]["ok"] and responses[2]["ok"]
        assert responses[1]["error"]["code"] == "invalid_request"
        assert responses[3]["error"]["code"] == "invalid_request"

    def test_tcp_round_trip(self, service_index):
        import socket

        svc = QueryService(service_index).start()
        server = serve_tcp(svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.server_address, timeout=5) as sock:
                stream = sock.makefile("rw")
                stream.write(json.dumps({"id": 1, "theta": 8.0, "k": 2}) + "\n")
                stream.flush()
                response = json.loads(stream.readline())
                assert response["ok"] is True and response["id"] == 1
        finally:
            server.shutdown()
            server.server_close()
            assert svc.drain()["clean"]


# ---------------------------------------------------------------------------
# Chaos acceptance scenario
# ---------------------------------------------------------------------------
class TestChaosAcceptance:
    def test_crash_slow_and_corrupt_reload_never_kill_the_service(
        self, tmp_path
    ):
        """One slow query + one corrupt reload artifact: the service sheds
        with typed Overloaded, keeps answering, rolls the corrupt reload
        back, drains within grace, and admitted non-degraded answers are
        bit-identical to direct NBIndex.query."""
        db = random_database(seed=23, size=24)
        index = _build_index(db)
        art = tmp_path / "watched.npz"
        save_index(index, art)

        plan = FaultPlan(slow_sites={"service.query": 0.5}, slow_limit=1)

        config = ServiceConfig(
            max_concurrency=1, max_queue=2, drain_grace_s=10.0,
            watch=str(art), reload_poll_s=10.0,  # reloads driven manually
        )
        svc = QueryService(index, config=config).start()
        try:
            with faults.injected(plan):
                # The first query eats the slow injection; followers pile
                # up behind it until the bounded queue sheds.
                tickets, sheds = [], []
                for i in range(8):
                    try:
                        tickets.append(
                            svc.submit(QueryRequest(id=i, theta=8.0, k=3)))
                    except Overloaded as error:
                        sheds.append(error)
                assert sheds, "bounded queue never shed under chaos load"
                assert all(e.to_wire()["code"] == "overloaded" for e in sheds)
                assert all(e.retry_after_s > 0 for e in sheds)

                # Corrupt reload artifact drops mid-flight: rollback, keep
                # serving the old index.
                art.write_bytes(art.read_bytes()[:200])
                assert svc.manager.maybe_reload() is False
                assert svc.manager.reload_failures == 1
                assert svc.manager.generation == 0

                responses = [t.wait(30.0) for t in tickets]
            assert all(r is not None for r in responses), "a ticket hung"
            assert all(r["ok"] for r in responses), responses

            # Bit-identical to the direct path for non-degraded answers.
            direct = index.query(quartile_relevance(db), 8.0, 3)
            for response in responses:
                result = response["result"]
                if result["degraded"]:
                    continue
                assert result["answer"] == [int(g) for g in direct.answer]
                assert result["gains"] == [int(g) for g in direct.gains]
        finally:
            report = svc.drain()
        assert report["clean"], report
