"""A closed mutable index holds nothing and refuses, typed.

``MutableIndex.close()`` hands back the live database, the base index,
the vantage frame and the memtable engine; afterwards every call but
``stats()`` (a snapshot) and ``close()`` (a no-op) raises
:class:`~repro.index.errors.IndexClosedError`.  A stale handle must
never touch the journal a reopened index appends to.  Mutations are
written ahead: an append that fails leaves the index and the file as
they were.
"""

from __future__ import annotations

import errno
import gc
import importlib
import weakref

import pytest

from repro.index.errors import IndexClosedError
from repro.index.nbindex import QuerySession
from tests.test_durability import _deployment, _mutate, _open, _state

# The module, not the function ``repro.durability`` re-exports by its name.
checkpoint_module = importlib.import_module("repro.durability.checkpoint")


def _engines(mutable) -> list:
    base = mutable.base
    return [mutable.engine, getattr(base, "index", base).engine]


class _FullDisk:
    """A journal handle whose ``write`` fails like a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._handle, name)


@pytest.mark.parametrize("num_shards", [1, 2])
def test_closed_handle_pins_nothing(tmp_path, num_shards):
    db, dbp, artifact = _deployment(tmp_path, num_shards)
    mutable = _open(tmp_path, dbp, artifact)
    _mutate(mutable, db)
    _state(mutable)  # fill the engines' pair caches and the frame
    refs = [weakref.ref(obj) for obj in (
        mutable.database, mutable.base, mutable.frame, mutable.journal,
        *_engines(mutable),
    )]
    mutable.close()
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    assert mutable.closed  # the handle itself is still referenced


def test_every_method_of_a_closed_index_refuses(tmp_path):
    db, dbp, artifact = _deployment(tmp_path, 2)
    mutable = _open(tmp_path, dbp, artifact)
    _mutate(mutable, db)
    session = QuerySession(mutable, lambda g: True)
    before = mutable.stats()
    journal_bytes = (tmp_path / "m.journal").read_bytes()
    mutable.close()
    calls = {
        "query": lambda: mutable.query(lambda g: True, 1.0, 3),
        "session": lambda: session.query(1.0, 3),
        "insert": lambda: mutable.insert(db[20], db.features[20]),
        "delete": lambda: mutable.delete(3),
        "update": lambda: mutable.update(4, db[21], db.features[21]),
        "compact": mutable.compact,
        "checkpoint": mutable.checkpoint,
        "memtable_size": lambda: mutable.memtable_size,
        "tombstones": lambda: mutable.tombstones,
    }
    for call in calls.values():
        with pytest.raises(IndexClosedError):
            call()
    assert mutable.stats() == before
    mutable.close()  # a second close is a no-op
    assert mutable.stats() == before
    assert "closed" in repr(mutable)
    assert (tmp_path / "m.journal").read_bytes() == journal_bytes


def test_stale_checkpoint_keeps_a_reopened_handles_inserts(tmp_path):
    db, dbp, artifact = _deployment(tmp_path, 1)
    stale = _open(tmp_path, dbp, artifact)
    _mutate(stale, db, inserts=1, delete=None)
    stale.checkpoint()
    stale.close()
    reopened = _open(tmp_path, dbp, artifact)
    for g in (19, 20):
        reopened.insert(db[g], db.features[g])
    with pytest.raises(IndexClosedError):
        stale.checkpoint()
    reopened.close()
    restarted = _open(tmp_path, dbp, artifact)
    assert len(restarted.database) == 21
    restarted.close()


def test_compaction_closed_midway_drops_its_base(tmp_path, monkeypatch):
    db, dbp, artifact = _deployment(tmp_path, 1)
    mutable = _open(tmp_path, dbp, artifact)
    _mutate(mutable, db)
    build = type(mutable)._compact_single

    def close_while_building(self, *args):
        built = build(self, *args)
        self.close()
        return built

    monkeypatch.setattr(type(mutable), "_compact_single", close_while_building)
    with pytest.raises(IndexClosedError):
        mutable.compact()
    assert "base" not in vars(mutable)
    assert mutable.stats()["delta"]["generation"] == 0


@pytest.mark.parametrize("num_shards", [1, 2])
def test_compaction_closed_before_its_commit_leaves_every_file(
    tmp_path, monkeypatch, num_shards
):
    """Closed from inside the compaction path, after its new generation is
    staged: the index file or manifest and every shard artifact stay byte
    for byte, and what was staged is removed."""
    db, dbp, artifact = _deployment(tmp_path, num_shards)
    mutable = _open(tmp_path, dbp, artifact)
    _mutate(mutable, db)
    folder = artifact.parent
    before = {path.name: path.read_bytes() for path in folder.iterdir()}
    name = "_compact_sharded" if num_shards > 1 else "_compact_single"
    build = getattr(type(mutable), name)
    staged = []

    def close_once_staged(self, *args):
        built = build(self, *args)
        staged.extend(path.name for path in args[-1])
        self.close()
        return built

    monkeypatch.setattr(type(mutable), name, close_once_staged)
    with pytest.raises(IndexClosedError):
        mutable.compact()
    assert staged and not set(staged) & set(before)
    after = {path.name: path.read_bytes() for path in folder.iterdir()}
    assert after.keys() == before.keys() and after == before


def test_checkpoint_closed_midway_leaves_the_journal(tmp_path, monkeypatch):
    db, dbp, artifact = _deployment(tmp_path, 1)
    mutable = _open(tmp_path, dbp, artifact)
    _mutate(mutable, db)
    journal_bytes = (tmp_path / "m.journal").read_bytes()
    write_base = checkpoint_module._write_base

    def close_after_write(snapshot, journal):
        written = write_base(snapshot, journal)
        mutable.close()
        return written

    monkeypatch.setattr(checkpoint_module, "_write_base", close_after_write)
    with pytest.raises(IndexClosedError):
        mutable.checkpoint()
    assert (tmp_path / "m.journal").read_bytes() == journal_bytes


def test_checkpoint_carries_its_tail_byte_for_byte(tmp_path, monkeypatch):
    """Mutations that land while the new base is written are copied from
    the journal file into the new generation, unparsed."""
    db, dbp, artifact = _deployment(tmp_path, 2)
    mutable = _open(tmp_path, dbp, artifact)
    _mutate(mutable, db)
    write_base = checkpoint_module._write_base
    tail = []

    def mutate_while_writing(snapshot, journal):
        written = write_base(snapshot, journal)
        mutable.insert(db[21], db.features[21])
        mutable.delete(6)
        tail.extend(
            (tmp_path / "m.journal").read_bytes().splitlines(True)[-2:]
        )
        return written

    monkeypatch.setattr(checkpoint_module, "_write_base", mutate_while_writing)
    report = mutable.checkpoint()
    assert report["folded_records"] == 3
    assert report["carried_records"] == 2
    assert (tmp_path / "m.journal").read_bytes().splitlines(True)[1:] == tail
    before = _state(mutable)
    mutable.close()
    reopened = _open(tmp_path, dbp, artifact)
    assert _state(reopened) == before
    reopened.close()


def test_replay_drops_the_parsed_records(tmp_path):
    db, dbp, artifact = _deployment(tmp_path, 1)
    mutable = _open(tmp_path, dbp, artifact)
    _mutate(mutable, db)
    assert mutable.journal._records == []
    mutable.close()
    reopened = _open(tmp_path, dbp, artifact)
    assert reopened.journal.num_records == 3
    assert reopened.journal._records == []
    reopened.close()


def test_a_failed_append_applies_nothing(tmp_path):
    """Write-ahead order: the record is fsynced before the mutation is
    applied, so an append that raises leaves the database, the memtable
    and the file as they were, and the next mutation takes the same id."""
    db, dbp, artifact = _deployment(tmp_path, 2)
    mutable = _open(tmp_path, dbp, artifact)
    mutable.insert(db[18], db.features[18])
    journal_bytes = (tmp_path / "m.journal").read_bytes()
    for mutate in (
        lambda: mutable.insert(db[19], db.features[19]),
        lambda: mutable.delete(2),
        lambda: mutable.update(3, db[19], db.features[19]),
    ):
        mutable.journal._handle = _FullDisk(mutable.journal._handle)
        with pytest.raises(OSError, match="No space"):
            mutate()
        assert len(mutable.database) == 19
        assert not mutable.database.deleted
        assert (tmp_path / "m.journal").read_bytes() == journal_bytes
    assert mutable.insert(db[19], db.features[19]) == 19
    assert mutable.delete(2)
    before = _state(mutable)
    mutable.close()
    reopened = _open(tmp_path, dbp, artifact)
    assert _state(reopened) == before
    reopened.close()


def test_a_refused_feature_row_is_not_journaled(tmp_path):
    db, dbp, artifact = _deployment(tmp_path, 1)
    mutable = _open(tmp_path, dbp, artifact)
    journal_bytes = (tmp_path / "m.journal").read_bytes()
    with pytest.raises(ValueError, match="feature row has 2 dims"):
        mutable.insert(db[18], db.features[18][:2])
    assert (tmp_path / "m.journal").read_bytes() == journal_bytes
    mutable.close()
    reopened = _open(tmp_path, dbp, artifact)
    assert len(reopened.database) == 18
    reopened.close()
