"""repro.obs: registry primitives, span nesting, cross-process merging."""

import json
import threading

import pytest

import repro
from repro import obs
from repro.obs import MetricsRegistry, NullRegistry, NullTracer, Tracer


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability off."""
    obs.disable()
    yield
    obs.disable()


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.counter("a", 4)
        registry.counter("b", 2)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 5, "b": 2}

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g", 1)
        registry.gauge("g", 7)
        assert registry.snapshot()["gauges"]["g"] == 7

    def test_timer_stream_summary(self):
        registry = MetricsRegistry()
        registry.observe("t", 0.5)
        registry.observe("t", 1.5)
        entry = registry.snapshot()["timers"]["t"]
        assert entry["count"] == 2
        assert entry["total"] == pytest.approx(2.0)
        assert entry["min"] == pytest.approx(0.5)
        assert entry["max"] == pytest.approx(1.5)
        assert entry["mean"] == pytest.approx(1.0)

    def test_timer_context_manager_records(self):
        registry = MetricsRegistry()
        with registry.timer("block"):
            pass
        entry = registry.snapshot()["timers"]["block"]
        assert entry["count"] == 1
        assert entry["total"] >= 0.0

    def test_histogram_buckets_and_overflow(self):
        registry = MetricsRegistry()
        for value in (1, 3, 10, 999):
            registry.histogram("h", value, buckets=(2, 8))
        entry = registry.snapshot()["histograms"]["h"]
        assert entry["buckets"] == [2.0, 8.0]
        assert entry["counts"] == [1, 1, 2]  # ≤2: 1 | ≤8: 3 | overflow: 10, 999
        assert entry["count"] == 4
        assert entry["sum"] == pytest.approx(1013.0)

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c", 2)
        registry.gauge("g", 1.5)
        registry.observe("t", 0.1)
        registry.histogram("h", 3)
        json.dumps(registry.snapshot())  # must not raise

    def test_merge_adds_counters_and_timers(self):
        ours, theirs = MetricsRegistry(), MetricsRegistry()
        ours.counter("c", 1)
        theirs.counter("c", 2)
        theirs.counter("only_theirs", 5)
        ours.observe("t", 1.0)
        theirs.observe("t", 3.0)
        theirs.histogram("h", 4)
        ours.histogram("h", 5)
        ours.merge(theirs.snapshot())
        snap = ours.snapshot()
        assert snap["counters"] == {"c": 3, "only_theirs": 5}
        assert snap["timers"]["t"]["count"] == 2
        assert snap["timers"]["t"]["max"] == pytest.approx(3.0)
        assert snap["histograms"]["h"]["count"] == 2

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("c")
        registry.reset()
        assert registry.snapshot() == NullRegistry().snapshot()

    def test_thread_safety_exact_totals(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(2000):
                registry.counter("hits")
                registry.observe("t", 0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == 16000
        assert snap["timers"]["t"]["count"] == 16000


class TestNullImplementations:
    def test_null_registry_records_nothing(self):
        registry = NullRegistry()
        registry.counter("c", 10)
        registry.gauge("g", 1)
        registry.observe("t", 1.0)
        registry.histogram("h", 1)
        with registry.timer("t2"):
            pass
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "timers": {}, "histograms": {},
        }
        assert not registry.enabled

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("s", a=1) as sp:
            sp.set(b=2)
        assert tracer.snapshot() == []


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root", n=3):
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b") as sp:
                sp.set(late=True)
        roots = tracer.snapshot()
        assert len(roots) == 1
        root = roots[0]
        assert root["name"] == "root"
        assert root["attrs"] == {"n": 3}
        assert [c["name"] for c in root["children"]] == ["child_a", "child_b"]
        assert root["children"][0]["children"][0]["name"] == "grandchild"
        assert root["children"][1]["attrs"] == {"late": True}
        assert root["seconds"] >= root["children"][0]["seconds"]

    def test_exception_stamps_error_attr(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("bad")
        record = tracer.snapshot()[0]
        assert "ValueError" in record["attrs"]["error"]

    def test_attach_grafts_under_open_span(self):
        tracer = Tracer()
        foreign = [{"name": "worker.chunk", "seconds": 0.1,
                    "attrs": {}, "children": []}]
        with tracer.span("parent"):
            tracer.attach(foreign, worker_pid=42)
        root = tracer.snapshot()[0]
        assert root["children"][0]["name"] == "worker.chunk"
        assert root["children"][0]["attrs"]["worker_pid"] == 42

    def test_attach_without_open_span_collects_roots(self):
        tracer = Tracer()
        tracer.attach([{"name": "orphan", "seconds": 0.0,
                        "attrs": {}, "children": []}])
        assert tracer.snapshot()[0]["name"] == "orphan"

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(label):
            with tracer.span(label):
                barrier.wait()  # both spans open simultaneously

        threads = [threading.Thread(target=work, args=(f"t{i}",))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        names = {record["name"] for record in tracer.snapshot()}
        assert names == {"t0", "t1"}  # roots, not nested into each other


class TestModuleSwitch:
    def test_disabled_by_default_helpers_are_noops(self):
        assert not obs.enabled()
        obs.counter("c", 3)
        with obs.span("s"):
            pass
        assert obs.get_registry().snapshot()["counters"] == {}

    def test_enable_records_and_disable_drops(self):
        obs.enable()
        assert obs.enabled()
        obs.counter("c", 3)
        assert obs.get_registry().snapshot()["counters"] == {"c": 3}
        obs.disable()
        assert not obs.enabled()
        assert obs.get_registry().snapshot()["counters"] == {}

    def test_enable_is_idempotent_unless_fresh(self):
        registry = obs.enable()
        obs.counter("kept")
        assert obs.enable() is registry
        assert obs.get_registry().snapshot()["counters"] == {"kept": 1}
        fresh = obs.enable(fresh=True)
        assert fresh is not registry
        assert fresh.snapshot()["counters"] == {}

    def test_observe_context_restores_previous_state(self):
        assert not obs.enabled()
        with repro.observe() as run:
            assert obs.enabled()
            obs.counter("inside", 2)
            assert run.stats()["counters"]["inside"] == 2
        assert not obs.enabled()
        # The handle keeps its registry after exit.
        assert run.stats()["counters"]["inside"] == 2

    def test_observe_document_schema(self):
        with repro.observe() as run:
            obs.counter("c")
            with obs.span("s"):
                pass
        doc = run.document()
        assert doc["schema"] == "repro.obs/v1"
        assert doc["metrics"]["counters"] == {"c": 1}
        assert [s["name"] for s in doc["spans"]] == ["s"]

    def test_maybe_enable_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert not obs.maybe_enable_from_env()
        assert not obs.enabled()
        monkeypatch.setenv("REPRO_OBS", "1")
        assert obs.maybe_enable_from_env()
        assert obs.enabled()

    def test_export_and_merge_state_roundtrip(self):
        obs.enable()
        obs.counter("c", 2)
        with obs.span("chunk"):
            pass
        state = obs.export_state(reset_after=True)
        assert obs.get_registry().snapshot()["counters"] == {}
        with obs.span("parent"):
            obs.merge_state(state, worker=True)
        snap = obs.get_registry().snapshot()
        assert snap["counters"] == {"c": 2}
        parent = obs.get_tracer().snapshot()[0]
        assert parent["children"][0]["name"] == "chunk"
        assert parent["children"][0]["attrs"]["worker"] is True


class TestQueryCounters:
    def test_counters_reproduce_query_stats(self):
        """One instrumented query reports the bench-script work counts."""
        from tests.conftest import random_database

        from repro.ged.star import StarDistance
        from repro.graphs import quartile_relevance
        from repro.index.nbindex import NBIndex

        db = random_database(seed=7, size=30)
        index = NBIndex.build(
            db, StarDistance(), num_vantage_points=4, branching=3, seed=0
        )
        with repro.observe() as run:
            result = index.query(quartile_relevance(db), 6.0, 3)
        counters = run.stats()["counters"]
        stats = result.stats
        assert counters["query.count"] == 1
        assert counters["query.distance_calls"] == stats.distance_calls
        assert (counters.get("query.candidates_generated", 0)
                == stats.candidates_generated)
        assert (counters.get("query.candidate_verifications", 0)
                == stats.candidate_verifications)
        assert counters.get("query.nodes_popped", 0) == stats.nodes_popped
        assert (counters.get("query.leaves_evaluated", 0)
                == stats.leaves_evaluated)
        assert (counters.get("query.pruned_subtrees", 0)
                == stats.pruned_subtrees)
        assert (counters.get("query.batch_decrements", 0)
                == stats.batch_decrements)
