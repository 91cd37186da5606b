"""Resilience layer: deadline budgets and the exact→beam→bipartite
degradation ladder and the checksummed persistence container — all driven
by deterministic fault injection (:mod:`repro.resilience.faults`)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ged import ExactGED, StarDistance
from repro.graphs import GraphDatabase, quartile_relevance
from repro.graphs.io import load_database, save_database
from repro.index import NBIndex
from repro.index import persistence
from repro.index.persistence import load_index, save_index
from repro.resilience import (
    BudgetExceeded,
    CorruptIndexError,
    DatabaseMismatchError,
    Deadline,
    IndexFormatError,
    PersistenceError,
    atomic_write,
    current_deadline,
    deadline_scope,
    faults,
    read_checksummed,
    write_checksummed,
)
from repro.resilience.faults import FaultPlan, SimulatedCrash
from tests.conftest import random_database, rungs


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------
class TestDeadline:
    def test_requires_at_least_one_budget(self):
        with pytest.raises(ValueError, match="budget"):
            Deadline()

    def test_rejects_negative_time_and_zero_expansions(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)
        with pytest.raises(ValueError):
            Deadline(expansion_limit=0)

    def test_time_budget_expiry(self):
        assert Deadline(0.0).expired()
        generous = Deadline(60.0)
        assert not generous.expired()
        assert generous.remaining() > 0

    def test_expansion_only_deadline_never_times_out(self):
        deadline = Deadline(expansion_limit=5)
        assert deadline.remaining() is None
        assert not deadline.expired()

    def test_state_roundtrip_shares_expiry(self):
        deadline = Deadline(60.0, expansion_limit=7)
        clone = Deadline.from_state(deadline.state())
        assert clone.expansion_limit == 7
        assert clone.remaining() == pytest.approx(deadline.remaining(), abs=0.05)
        assert not clone.degraded

    def test_degradation_accounting(self):
        deadline = Deadline(60.0)
        assert not deadline.degraded
        deadline.record_degradation("ged.exact.beam")
        deadline.record_degradation("ged.exact.beam")
        deadline.merge_degradations({"ged.exact.bipartite": 3})
        assert deadline.degraded
        assert deadline.degradations == {
            "ged.exact.beam": 2,
            "ged.exact.bipartite": 3,
        }

    def test_scope_nesting_and_none_passthrough(self):
        outer = Deadline(60.0)
        inner = Deadline(30.0)
        assert current_deadline() is None
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(None):
                assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_scope_is_thread_local(self):
        """Service worker threads must not see each other's ambient
        deadlines — the stack is per-thread."""
        import threading

        outer = Deadline(60.0)
        seen = []

        def probe():
            seen.append(current_deadline())

        with deadline_scope(outer):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(5.0)
            assert current_deadline() is outer
        assert seen == [None]


class TestDeadlineProperties:
    """Property tests for the budget arithmetic: ``remaining()`` is never
    negative no matter how stale the deadline, and ``from_timeout_ms``
    agrees with the seconds constructor."""

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_remaining_never_negative(self, seconds):
        deadline = Deadline(seconds)
        assert deadline.remaining() >= 0.0
        # An already-expired deadline clamps instead of going negative.
        expired = Deadline(0.0)
        assert expired.expired()
        assert expired.remaining() == 0.0

    @given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    def test_from_timeout_ms_matches_seconds(self, milliseconds):
        deadline = Deadline.from_timeout_ms(milliseconds)
        assert deadline.seconds == pytest.approx(milliseconds / 1000.0)

    @given(st.floats(max_value=-1e-9, min_value=-1e6, allow_nan=False))
    def test_from_timeout_ms_rejects_negative(self, milliseconds):
        with pytest.raises(ValueError):
            Deadline.from_timeout_ms(milliseconds)

    @given(st.floats(min_value=0.0, max_value=0.05, allow_nan=False))
    def test_expired_iff_remaining_exhausted(self, seconds):
        deadline = Deadline(seconds)
        # Whatever the timing, the two views of the budget must agree.
        for _ in range(3):
            if deadline.expired():
                assert deadline.remaining() == 0.0
            else:
                assert deadline.remaining() >= 0.0


# ---------------------------------------------------------------------------
# Degradation ladder (serial exact GED)
# ---------------------------------------------------------------------------
class TestDegradationLadder:
    @pytest.fixture()
    def pair(self):
        db = random_database(seed=5, size=4, min_nodes=4, max_nodes=6)
        return db[0], db[1]

    def test_expansion_budget_degrades_to_beam(self, pair):
        g1, g2 = pair
        exact = ExactGED()(g1, g2)
        with deadline_scope(Deadline(3600.0, expansion_limit=1)) as deadline:
            value = ExactGED()(g1, g2)
        assert deadline.degradations.get("ged.exact.beam", 0) >= 1
        assert "ged.exact.bipartite" not in deadline.degradations
        assert value >= exact - 1e-9  # upper bound

    def test_expired_time_budget_degrades_to_bipartite(self, pair):
        g1, g2 = pair
        exact = ExactGED()(g1, g2)
        with deadline_scope(Deadline(0.0)) as deadline:
            value = ExactGED()(g1, g2)
        assert deadline.degradations.get("ged.exact.bipartite", 0) >= 1
        assert value >= exact - 1e-9

    def test_no_deadline_stays_exact(self, pair):
        g1, g2 = pair
        assert current_deadline() is None
        reference = ExactGED()(g1, g2)
        assert ExactGED()(g1, g2) == pytest.approx(reference)

    def test_generous_budget_stays_exact(self, pair):
        g1, g2 = pair
        exact = ExactGED()(g1, g2)
        with deadline_scope(Deadline(3600.0)) as deadline:
            value = ExactGED()(g1, g2)
        assert value == pytest.approx(exact)
        assert not deadline.degraded

    def test_budget_exceeded_reason(self):
        assert BudgetExceeded("time").reason == "time"
        assert BudgetExceeded("expansions").reason == "expansions"


# ---------------------------------------------------------------------------
# The acceptance scenario: slow GED + deadline, end to end
# ---------------------------------------------------------------------------
class TestDegradedQueryUnderFaults:
    def test_indexed_query_survives_faults_and_flags_degradation(self):
        db = random_database(seed=11, size=24, min_nodes=3, max_nodes=5)
        query = quartile_relevance(db, quantile=0.3)
        index = NBIndex.build(
            db, ExactGED(), num_vantage_points=4, seed=0,
        )
        # Drop the build-time cache: the query must recompute distances
        # under the deadline.
        index.engine._cache.clear()

        plan = FaultPlan(slow_sites={"ged.exact": 0.05}, slow_limit=1)
        deadline = Deadline(seconds=0.02)
        with faults.injected(plan):
            result = index.query(query, theta=4.0, k=3, deadline=deadline)

        # A valid answer came back despite a stalled pair.
        assert result.answer
        assert all(0 <= gid < len(db) for gid in result.answer)
        assert all(gain >= 0 for gain in result.gains)
        # ...and it is honestly flagged as degraded.
        assert result.stats.degraded
        assert result.stats.degradation_events > 0
        assert set(result.stats.degradations) <= {
            "ged.exact.beam", "ged.exact.bipartite",
        }
        assert deadline.degraded

    def test_query_deadline_without_faults_marks_stats(self):
        db = random_database(seed=3, size=16, min_nodes=3, max_nodes=5)
        query = quartile_relevance(db, quantile=0.3)
        index = NBIndex.build(
            db, ExactGED(), num_vantage_points=4, seed=0,
        )
        index.engine._cache.clear()
        result = index.query(
            query, theta=4.0, k=3, deadline=Deadline(3600.0, expansion_limit=1)
        )
        assert result.answer
        assert result.stats.degraded
        assert result.stats.degradations.get("ged.exact.beam", 0) >= 1

    def test_ambient_deadline_scope_reaches_query(self):
        db = random_database(seed=3, size=16, min_nodes=3, max_nodes=5)
        query = quartile_relevance(db, quantile=0.3)
        index = NBIndex.build(
            db, ExactGED(), num_vantage_points=4, seed=0,
        )
        index.engine._cache.clear()
        with deadline_scope(Deadline(3600.0, expansion_limit=1)):
            result = index.query(query, theta=4.0, k=3)
        assert result.stats.degraded

    def test_a_degraded_distance_never_answers_the_next_query(self):
        """The pair cache holds distances only: upper bounds one query's
        deadline forced must not answer a later query, unflagged."""
        db = random_database(seed=21, size=30)
        query = quartile_relevance(db, quantile=0.5)
        build = dict(num_vantage_points=4, seed=7)
        want = NBIndex.build(db, ExactGED(), **build).query(query, 4.0, 4)
        index = NBIndex.build(db, ExactGED(), **build)
        pressed = index.query(query, 4.0, 4, deadline=Deadline(0.0))
        assert pressed.stats.degraded and pressed.answer != want.answer
        got = index.query(query, 4.0, 4)
        assert not got.stats.degraded
        assert (got.answer, got.gains) == (want.answer, want.gains)

    def test_a_degraded_frame_row_never_answers_the_next_query(self, tmp_path):
        """The frame keeps a memtable graph's row for later queries; one a
        query's deadline degraded is that query's alone."""
        import repro
        from repro import baseline_greedy

        db = random_database(seed=31, size=40, min_nodes=5, max_nodes=7)
        save_database(db.subset(range(30)), tmp_path / "db.jsonl")
        save_index(
            NBIndex.build(
                db.subset(range(30)), ExactGED(), num_vantage_points=4,
                seed=0,
            ),
            tmp_path / "idx.npz",
        )
        index = repro.open_index(
            tmp_path / "idx.npz", tmp_path / "db.jsonl", ExactGED(),
            mutable=True,
        )
        for g in range(30, 40):
            index.insert(db[g], db.features[g])
        theta = rungs(db.graphs[:30], ExactGED())[2]
        pressed = index.query(
            lambda g: True, theta, 5, deadline=Deadline(expansion_limit=2)
        )
        assert pressed.stats.degraded
        assert not index.frame.extra
        got = index.query(lambda g: True, theta, 5)
        want = baseline_greedy(index.database, ExactGED(), lambda g: True, theta, 5)
        assert (got.answer, got.gains) == (want.answer, want.gains)

    def test_undegraded_query_stats_stay_clean(self):
        db = random_database(seed=3, size=16, min_nodes=3, max_nodes=5)
        query = quartile_relevance(db, quantile=0.3)
        index = NBIndex.build(
            db, StarDistance(), num_vantage_points=4, seed=0,
        )
        result = index.query(query, theta=4.0, k=3)
        assert not result.stats.degraded
        assert result.stats.degradation_events == 0
        assert result.stats.degradations == {}


class TestBuildsIgnoreTheAmbientDeadline:
    def test_builds_store_exact_coordinates(self, tmp_path):
        """A build stores what it computes: under a query's ambient budget
        it would store upper bounds as coordinates."""
        from repro.index.persistence import stored_embedding
        from repro.shard.build import build_shards

        db = random_database(seed=31, size=12, min_nodes=5, max_nodes=7)
        build = dict(num_vantage_points=3, seed=0)
        want = NBIndex.build(db, ExactGED(), **build)
        free = build_shards(
            db, ExactGED(), num_shards=2, out_dir=tmp_path / "free", **build
        )
        deadline = Deadline(expansion_limit=4)
        with deadline_scope(deadline):
            got = NBIndex.build(db, ExactGED(), **build)
            pressed = build_shards(
                db, ExactGED(), num_shards=2, out_dir=tmp_path / "pressed",
                **build,
            )
        assert deadline.degradations == {}
        assert np.array_equal(got.embedding.coords, want.embedding.coords)
        for shard in ("shard-000.npz", "shard-001.npz"):
            vantage, coords = stored_embedding(pressed.parent / shard)
            want_vantage, want_coords = stored_embedding(free.parent / shard)
            assert vantage == want_vantage
            assert np.array_equal(coords, want_coords)

    def test_an_insert_stores_exact_coordinates(self):
        db = random_database(seed=31, size=30, min_nodes=6, max_nodes=8)
        index = NBIndex.build(
            db.subset(range(12)), ExactGED(), num_vantage_points=3,
            seed=0,
        )
        for g in range(12, 30):
            with deadline_scope(Deadline(expansion_limit=1)):
                gid = index.insert(db[g], db.features[g])
            exact = [
                ExactGED()(db[g], db[v])
                for v in index.embedding.vantage_indices
            ]
            assert index.embedding.coords[gid].tolist() == exact


# ---------------------------------------------------------------------------
# Persistence integrity (torn writes, truncation, versioning, fingerprints)
# ---------------------------------------------------------------------------
class TestPersistenceIntegrity:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        db = random_database(seed=4, size=25)
        dist = StarDistance()
        index = NBIndex.build(
            db, dist, num_vantage_points=4, seed=1
        )
        path = tmp_path_factory.mktemp("index") / "index.npz"
        save_index(index, path)
        return db, dist, index, path

    def test_roundtrip_still_works(self, saved):
        db, dist, index, path = saved
        loaded = load_index(path, db, dist)
        assert np.array_equal(loaded.embedding.coords, index.embedding.coords)

    def test_torn_write_detected_on_load(self, saved, tmp_path):
        db, dist, index, _ = saved
        torn = tmp_path / "torn.npz"
        with faults.injected(FaultPlan(torn_write=True)):
            save_index(index, torn)
        with pytest.raises(CorruptIndexError, match="torn write"):
            load_index(torn, db, dist)

    def test_truncated_file_detected(self, saved, tmp_path):
        db, dist, _, path = saved
        clipped = tmp_path / "clipped.npz"
        clipped.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CorruptIndexError):
            load_index(clipped, db, dist)

    def test_tiny_file_detected(self, saved, tmp_path):
        db, dist, _, _ = saved
        stub = tmp_path / "stub.npz"
        stub.write_bytes(b"RP")
        with pytest.raises(CorruptIndexError, match="truncated"):
            load_index(stub, db, dist)

    def test_bad_magic_detected(self, saved, tmp_path):
        db, dist, _, path = saved
        raw = bytearray(path.read_bytes())
        raw[:6] = b"NOTME\n"
        mangled = tmp_path / "mangled.npz"
        mangled.write_bytes(bytes(raw))
        with pytest.raises(CorruptIndexError, match="magic"):
            load_index(mangled, db, dist)

    def test_bit_flip_fails_checksum(self, saved, tmp_path):
        db, dist, _, path = saved
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        flipped = tmp_path / "flipped.npz"
        flipped.write_bytes(bytes(raw))
        with pytest.raises(CorruptIndexError, match="checksum"):
            load_index(flipped, db, dist)

    def test_wrong_database_fingerprint(self, saved):
        _, dist, _, path = saved
        other = random_database(seed=99, size=25)
        with pytest.raises(DatabaseMismatchError, match="fingerprint"):
            load_index(path, other, dist)

    def test_future_format_version_rejected(self, saved, tmp_path, monkeypatch):
        db, dist, index, _ = saved
        future = tmp_path / "future.npz"
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(persistence, "FORMAT_VERSION", 99)
            save_index(index, future)
        with pytest.raises(IndexFormatError, match="99"):
            load_index(future, db, dist)

    def test_bare_npz_is_rejected(self, saved, tmp_path):
        """An index from before the container (format 1) fails its check."""
        db, dist, _, path = saved
        bare = tmp_path / "bare.npz"
        bare.write_bytes(read_checksummed(path))
        with pytest.raises(CorruptIndexError, match="bad magic"):
            load_index(bare, db, dist)

    def test_exception_hierarchy_is_valueerror(self):
        for exc in (CorruptIndexError, IndexFormatError,
                    DatabaseMismatchError):
            assert issubclass(exc, PersistenceError)
            assert issubclass(exc, ValueError)


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------
class TestAtomicIO:
    def test_atomic_write_replaces_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_write(path, "w", encoding="utf-8") as handle:
            handle.write("new contents")
        assert path.read_text() == "new contents"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_leaves_original_and_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("precious")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write(path, "w", encoding="utf-8") as handle:
                handle.write("half-finish")
                raise RuntimeError("boom")
        assert path.read_text() == "precious"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_checksummed_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = b"\x00\x01payload bytes\xff" * 100
        write_checksummed(path, payload)
        assert read_checksummed(path) == payload

    def test_save_database_crash_keeps_previous_file(self, tmp_path):
        db = random_database(seed=1, size=6)
        path = tmp_path / "db.jsonl"
        save_database(db, path)

        class ExplodingDatabase(GraphDatabase):
            def feature_vector(self, index):
                if index >= 2:
                    raise RuntimeError("disk on fire")
                return super().feature_vector(index)

        bad = ExplodingDatabase(db.graphs, db.features)
        with pytest.raises(RuntimeError, match="disk on fire"):
            save_database(bad, path)
        reloaded = load_database(path)
        assert len(reloaded) == len(db)
        assert list(tmp_path.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# Fault harness self-checks
# ---------------------------------------------------------------------------
class TestFaultHarness:
    def test_injected_scope_installs_and_clears(self):
        assert faults.active() is None
        plan = FaultPlan(torn_write=True)
        with faults.injected(plan):
            assert faults.active() is plan
        assert faults.active() is None

    def test_maybe_tear_is_one_shot(self):
        with faults.injected(FaultPlan(torn_write=True)):
            first = faults.maybe_tear(b"0123456789")
            second = faults.maybe_tear(b"0123456789")
        assert first == b"01234"
        assert second is None

    def test_slow_limit_caps_injections(self):
        with faults.injected(FaultPlan(slow_sites={"x": 0.001}, slow_limit=2)):
            for _ in range(5):
                faults.maybe_slow("x")
            assert faults._slow_injected == 2

    def test_abort_after_stage_only_fires_on_named_stage(self):
        with faults.injected(FaultPlan(abort_after_stage="delta.compact.commit")):
            faults.maybe_abort_stage("delta.compact.shard")
            with pytest.raises(SimulatedCrash):
                faults.maybe_abort_stage("delta.compact.commit")

    def test_no_plan_hooks_are_noops(self):
        assert faults.active() is None
        faults.maybe_slow("anything")
        faults.maybe_abort_stage("anything")
        assert faults.maybe_tear(b"data") is None
