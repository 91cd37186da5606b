"""Hot index reload: validate, atomically swap, roll back on failure.

The serving pattern for vantage/embedding indexes is a long-lived process
over an immutable artifact: a new index is *built offline*, written with
the checksummed container (:func:`repro.index.save_index`), and dropped
next to the serving one.  :class:`IndexManager` owns the swap:

1. **Validate outside the latch** — the candidate is loaded with the
   typed loaders (:class:`~repro.resilience.CorruptIndexError`,
   :class:`~repro.resilience.IndexFormatError`,
   :class:`~repro.resilience.DatabaseMismatchError` all fail the reload
   cleanly), so a torn or wrong-database artifact never gets near the
   serving pointer.  In-flight queries are completely undisturbed during
   validation — they hold read latches on the *old* index.
2. **Swap under the write latch** — the pointer flip waits for in-flight
   readers to finish and is itself O(1), so query disruption is bounded
   by the latch handoff, not by index size.  Queries that started on the
   old index keep their reference and finish on it safely.
3. **Roll back on failure** — any validation error leaves the previous
   index installed and serving; the failure is counted
   (``service.reload.failed``) and re-raised as
   :class:`~repro.service.errors.ReloadFailed` for the caller.

:meth:`maybe_reload` is the watcher hook: it fingerprints the watched
path (mtime + size) and triggers a reload only when the artifact actually
changed, so the service's polling loop is cheap.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro import obs
from repro.resilience.errors import PersistenceError
from repro.service.errors import ReloadFailed
from repro.service.latch import ReadWriteLatch


def _fingerprint(path: Path) -> tuple[int, int] | None:
    """(mtime_ns, size) of ``path``, or ``None`` if it does not exist."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size)


class IndexManager:
    """The swappable serving index behind a read-write latch."""

    def __init__(
        self,
        index,
        *,
        database=None,
        distance=None,
        watch_path: str | os.PathLike | None = None,
    ):
        self._latch = ReadWriteLatch()
        self._index = index
        self._database = database if database is not None else index.database
        self._distance = distance if distance is not None else index.distance
        self.watch_path = None if watch_path is None else Path(watch_path)
        self._seen = (
            _fingerprint(self.watch_path) if self.watch_path is not None else None
        )
        self.generation = 0
        self.reloads = 0
        self.reload_failures = 0
        obs.gauge("service.index_generation", 0)

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------
    def acquire(self):
        """Read-latched access: ``with manager.acquire() as index: ...``.

        The latch is held for the whole block, so a concurrent reload
        waits for the query instead of swapping underneath it.
        """
        return _ReadHandle(self._latch, lambda: self._index)

    @property
    def index(self):
        """The current index (unlatched peek — for stats, not queries)."""
        return self._index

    @property
    def database(self):
        return self._database

    # ------------------------------------------------------------------
    # Reload side
    # ------------------------------------------------------------------
    def _load_candidate(self, path: Path):
        """Typed loader dispatch: shard-manifest (JSON) or single npz.

        A sharded reload passes the currently serving bundle as
        ``previous`` so shards whose artifact checksum and member set are
        unchanged are reused in place — a one-shard rebuild reloads one
        shard, not S.
        """
        if path.suffix == ".json":
            from repro.shard import ShardedIndex

            previous = (
                self._index if isinstance(self._index, ShardedIndex) else None
            )
            return ShardedIndex.load(
                path, self._database, self._distance, previous=previous
            )
        from repro.index.persistence import load_index

        return load_index(path, self._database, self._distance)

    def reload(self, path: str | os.PathLike) -> int:
        """Validate the artifact at ``path`` and swap it in.

        Returns the new generation number.  Raises :class:`ReloadFailed`
        (with the typed persistence error as ``__cause__``) and keeps the
        current index serving on any validation failure.
        """
        path = Path(path)
        try:
            with obs.timer("service.reload_seconds"):
                candidate = self._load_candidate(path)
        except (PersistenceError, OSError) as error:
            self.reload_failures += 1
            obs.counter("service.reload.failed")
            raise ReloadFailed(
                f"reload candidate {path} rejected, previous index stays "
                f"installed (generation {self.generation}): {error}"
            ) from error
        with self._latch.write():
            self._index = candidate
            self.generation += 1
            generation = self.generation
        self.reloads += 1
        obs.counter("service.reload.success")
        obs.gauge("service.index_generation", generation)
        return generation

    def maybe_reload(self) -> bool:
        """Reload iff the watched artifact changed since last seen.

        A failed validation *consumes* the new fingerprint (so a corrupt
        drop is reported once, not every poll) and leaves the previous
        index serving.  Returns True only on a successful swap.
        """
        if self.watch_path is None:
            return False
        current = _fingerprint(self.watch_path)
        if current is None or current == self._seen:
            return False
        self._seen = current
        try:
            self.reload(self.watch_path)
        except ReloadFailed:
            return False
        return True

    def stats(self) -> dict:
        return {
            "generation": self.generation,
            "reloads": self.reloads,
            "reload_failures": self.reload_failures,
            "watch_path": (
                None if self.watch_path is None else str(self.watch_path)
            ),
        }


class _ReadHandle:
    """Context manager pairing the read latch with the current index."""

    __slots__ = ("_latch", "_get", "_cm")

    def __init__(self, latch: ReadWriteLatch, get):
        self._latch = latch
        self._get = get

    def __enter__(self):
        self._cm = self._latch.read()
        self._cm.__enter__()
        return self._get()

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)
