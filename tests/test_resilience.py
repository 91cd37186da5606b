"""Resilience layer: deadlines that cancel a query, the soundness of every
cache a cancelled query touched, and the checksummed persistence
container — driven by deterministic fault injection
(:mod:`repro.resilience.faults`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.engine.paircache import key_halves
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
from repro.shard.build import build_shards
from tests.conftest import random_database


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------
class TestDeadline:
    def test_requires_at_least_one_budget(self):
        with pytest.raises(TypeError):
            Deadline()
        with pytest.raises(ValueError, match="budget"):
            Deadline(None)

    def test_rejects_negative_time_and_zero_expansions(self):
        """A time budget is the one budget: an expansion budget existed
        only to force the removed beam fallback."""
        with pytest.raises(ValueError):
            Deadline(-1.0)
        with pytest.raises(TypeError):
            Deadline(60.0, expansion_limit=1)

    def test_time_budget_expiry(self):
        assert Deadline(0.0).expired()
        generous = Deadline(60.0)
        assert not generous.expired()
        assert generous.remaining() > 0

    def test_state_roundtrip_shares_expiry(self):
        deadline = Deadline(60.0)
        clone = Deadline.from_state(deadline.state())
        assert clone.seconds == 60.0
        assert clone.remaining() == pytest.approx(deadline.remaining(), abs=0.05)
        expired = Deadline.from_state(Deadline(0.0).state())
        with pytest.raises(BudgetExceeded):
            expired.check()

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
# Cancellation: a deadline that runs out raises, whatever the metric
# ---------------------------------------------------------------------------
class Countdown(Deadline):
    """A deadline that expires at its ``checks + 1``-th check, whatever
    the clock: it cancels a query after that many distance batches, greedy
    rounds and A* strides — mid-verification, deterministically."""

    def __init__(self, checks: int):
        super().__init__(3600.0)
        self.left = checks

    def check(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("countdown expired")


class TestCancellation:
    @pytest.fixture()
    def pair(self):
        db = random_database(seed=5, size=4, min_nodes=4, max_nodes=6)
        return db[0], db[1]

    def test_an_expired_budget_raises(self, pair):
        g1, g2 = pair
        with deadline_scope(Deadline(0.0)), pytest.raises(BudgetExceeded):
            ExactGED()(g1, g2)

    def test_a_search_checks_its_deadline_as_it_runs(self, pair):
        g1, g2 = pair
        with deadline_scope(Countdown(0)), pytest.raises(BudgetExceeded):
            ExactGED()(g1, g2)

    def test_no_deadline_stays_exact(self, pair):
        g1, g2 = pair
        assert current_deadline() is None
        reference = ExactGED()(g1, g2)
        assert ExactGED()(g1, g2) == pytest.approx(reference)

    def test_generous_budget_stays_exact(self, pair):
        g1, g2 = pair
        exact = ExactGED()(g1, g2)
        with deadline_scope(Deadline(3600.0)):
            assert ExactGED()(g1, g2) == exact

    def test_a_stalled_pair_cancels_the_indexed_query(self):
        db = random_database(seed=11, size=24, min_nodes=3, max_nodes=5)
        query = quartile_relevance(db, quantile=0.3)
        index = NBIndex.build(db, ExactGED(), num_vantage_points=4, seed=0)
        plan = FaultPlan(slow_sites={"ged.exact": 0.05}, slow_limit=1)
        with faults.injected(plan), pytest.raises(BudgetExceeded):
            index.query(query, theta=4.0, k=3, deadline=Deadline(0.02))

    def test_ambient_deadline_scope_reaches_query(self):
        db = random_database(seed=3, size=16, min_nodes=3, max_nodes=5)
        query = quartile_relevance(db, quantile=0.3)
        index = NBIndex.build(db, StarDistance(), num_vantage_points=4, seed=0)
        with deadline_scope(Deadline(0.0)), pytest.raises(BudgetExceeded):
            index.query(query, theta=4.0, k=3)

    def test_a_generous_deadline_changes_nothing(self):
        db = random_database(seed=3, size=16, min_nodes=3, max_nodes=5)
        query = quartile_relevance(db, quantile=0.3)

        def run(deadline):
            index = NBIndex.build(db, ExactGED(), num_vantage_points=4, seed=0)
            result = index.query(query, theta=4.0, k=3, deadline=deadline)
            stats = result.stats.stats()
            for timer in ("init_seconds", "search_seconds", "total_seconds"):
                stats.pop(timer)
            stats.pop("cascade")
            return _outcome(result), stats

        assert run(Deadline(3600.0)) == run(None)


# ---------------------------------------------------------------------------
# Cache soundness: a cancelled query leaves only exact values behind
# ---------------------------------------------------------------------------
def _outcome(result):
    """What an answer promises: ids, gains, π and the certificate."""
    return (
        result.answer, result.gains, result.pi, result.opt_upper,
        result.certified_ratio,
    )


def _assert_stores_only_exact(index, database, metric):
    """Every pair-table entry of every engine the index queries through,
    and every frame row kept past the stored ones, ``==`` a fresh
    evaluation of the metric."""
    engines = {id(e): e for e in (
        getattr(index, "engine", None),
        getattr(getattr(index, "base", None), "engine", None),
    ) if e is not None}
    for engine in engines.values():
        keys, values = engine._cache.items()
        for key, value in zip(keys.tolist(), values.tolist()):
            a, b = key_halves(key)
            assert value == metric(database[a], database[b]), (a, b)
    frame = getattr(index, "frame", None)
    for gid, row in (frame.extra.items() if frame is not None else ()):
        exact = [metric(database[gid], database[v]) for v in frame.vantage_indices]
        assert row.tolist() == exact, gid


class _Case:
    """A database, its metric and build, and the answer every deployment
    shape gives it without a budget (a fresh ``NBIndex``'s)."""

    def __init__(self, db, metric, build, theta, memtable):
        self.db, self.metric, self.build = db, metric, build
        self.theta, self.memtable = theta, memtable
        self.query = quartile_relevance(db, quantile=0.5)
        fresh = NBIndex.build(db, metric, **build)
        self.want = _outcome(fresh.query(self.query, theta, 4))

    def deploy(self, shape, tmp_path):
        """An ``NBIndex``, an S = 2 ``ShardedIndex`` or a ``MutableIndex``
        holding the last ``memtable`` graphs as memtable rows."""
        db, metric, build = self.db, self.metric, self.build
        if shape == "nbindex":
            return NBIndex.build(db, metric, **build)
        tmp_path.mkdir(parents=True)
        if shape == "sharded":
            manifest = build_shards(
                db, metric, num_shards=2, out_dir=tmp_path, **build
            )
            return repro.open_index(manifest, db, metric, shards=True)
        base = db.subset(range(len(db) - self.memtable))
        save_database(base, tmp_path / "db.jsonl")
        save_index(NBIndex.build(base, metric, **build), tmp_path / "idx.npz")
        index = repro.open_index(
            tmp_path / "idx.npz", tmp_path / "db.jsonl", metric, mutable=True,
        )
        for g in range(len(base), len(db)):
            index.insert(db[g], db.features[g])
        return index


@pytest.fixture(scope="module")
def exact_case():
    db = random_database(seed=21, size=60, min_nodes=4, max_nodes=6)
    return _Case(db, ExactGED(), dict(num_vantage_points=4, seed=7), 2.0, 12)


@pytest.fixture(scope="module")
def star_case():
    from repro.datasets.dud import dud_like

    db = dud_like(1000, seed=11)
    return _Case(db, StarDistance(), dict(num_vantage_points=20, seed=11), 9.0, 40)


class TestCancelledQueriesStoreOnlyExactValues:
    """The bug class a degraded tier kept producing — one query's upper
    bounds answering the next from the pair cache or from the frame.  With
    cancellation nothing is stored before its batch completes: cancel a
    query after a few checks, then the next unbudgeted query equals a
    fresh index's answer and every stored value equals a fresh
    evaluation."""

    @pytest.mark.parametrize("shape", ["nbindex", "sharded", "mutable"])
    def test_exact_ged(self, exact_case, shape, tmp_path):
        """Every few checks from the first round on: between rounds, inside
        A* strides, before batches and — on the mutable shape — while a
        memtable graph's frame row is measured (16, 46 at this writing)."""
        for checks in range(1, 64, 5):
            index = exact_case.deploy(shape, tmp_path / str(checks))
            self._cancel_then_answer(exact_case, index, checks)

    @pytest.mark.parametrize("shape", ["nbindex", "sharded", "mutable"])
    @pytest.mark.parametrize("checks", [6, 45])
    def test_star(self, star_case, shape, checks, tmp_path):
        index = star_case.deploy(shape, tmp_path / "star")
        self._cancel_then_answer(star_case, index, checks)

    @staticmethod
    def _cancel_then_answer(case, index, checks):
        session = index.session(case.query) if hasattr(index, "session") else None
        ask = session.query if session else (
            lambda *a, **kw: index.query(case.query, *a, **kw)
        )
        with pytest.raises(BudgetExceeded):
            ask(case.theta, 4, deadline=Countdown(checks))
        _assert_stores_only_exact(index, case.db, case.metric)
        got = ask(case.theta, 4)
        assert _outcome(got) == case.want
        _assert_stores_only_exact(index, case.db, case.metric)


@pytest.fixture(scope="module")
def small_star():
    from repro.datasets.dud import dud_like

    case = _Case(dud_like(150, seed=11), StarDistance(), dict(seed=11), 9.0, 0)
    case.index = case.deploy("nbindex", None)
    return case


@settings(max_examples=25, deadline=None)
@given(budget_ms=st.floats(min_value=0.0, max_value=4.0), warm=st.booleans())
def test_a_budgeted_query_answers_exactly_or_raises(small_star, budget_ms, warm):
    """Over budgets from 0 to a few ms, on a cold or a warm pair cache, a
    query either returns the unbudgeted answer — ids, gains and
    certificate — or raises :class:`BudgetExceeded`; nothing else."""
    index = small_star.index
    if not warm:
        index.engine._cache.clear()
    try:
        result = index.query(
            small_star.query, small_star.theta, 4,
            deadline=Deadline.from_timeout_ms(budget_ms),
        )
    except BudgetExceeded:
        return
    assert _outcome(result) == small_star.want


class TestBuildsIgnoreTheAmbientDeadline:
    def test_builds_store_exact_coordinates(self, tmp_path):
        """A build is not a query: an expired ambient budget neither
        cancels it nor changes a coordinate."""
        from repro.index.persistence import stored_embedding

        db = random_database(seed=31, size=12, min_nodes=5, max_nodes=7)
        build = dict(num_vantage_points=3, seed=0)
        want = NBIndex.build(db, ExactGED(), **build)
        free = build_shards(
            db, ExactGED(), num_shards=2, out_dir=tmp_path / "free", **build
        )
        with deadline_scope(Deadline(0.0)):
            got = NBIndex.build(db, ExactGED(), **build)
            pressed = build_shards(
                db, ExactGED(), num_shards=2, out_dir=tmp_path / "pressed",
                **build,
            )
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
            with deadline_scope(Deadline(0.0)):
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
