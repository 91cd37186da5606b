"""repro — Top-k Representative Queries on Graph Databases (SIGMOD 2014).

A from-scratch reproduction of the REP model and NB-Index of Ranu, Hoang
and Singh, with every substrate (graph edit distance, metric indexes) and
every compared baseline (DisC, DIV, C-tree, M-tree) implemented in Python.

Typical usage::

    from repro import TopKRepresentativeQuery, quartile_relevance
    from repro.datasets import dud_like

    database = dud_like(num_graphs=500, seed=7)
    engine = TopKRepresentativeQuery(database)
    q = quartile_relevance(database)
    result = engine.run(q, theta=10.0, k=10)
    exemplars = [database[i] for i in result.answer]

See DESIGN.md for the architecture and EXPERIMENTS.md for the paper
reproduction results.
"""

from repro import obs
from repro.core import (
    QueryResult,
    QueryStats,
    TopKRepresentativeQuery,
    baseline_greedy,
    lazy_greedy,
)
from repro.engine import DistanceEngine
from repro.ged import ExactGED, StarDistance
from repro.graphs import (
    GraphDatabase,
    LabeledGraph,
    quartile_relevance,
)
from repro.index import NBIndex, QuerySession
from repro.index.errors import IndexClosedError, ReadOnlyIndexError
from repro.obs import Statable, observe
from repro.resilience import BudgetExceeded, Deadline, deadline_scope

__version__ = "1.0.0"

__all__ = [
    "LabeledGraph",
    "GraphDatabase",
    "quartile_relevance",
    "ExactGED",
    "StarDistance",
    "DistanceEngine",
    "NBIndex",
    "QuerySession",
    "ShardedIndex",
    "build_shards",
    "QueryResult",
    "QueryStats",
    "TopKRepresentativeQuery",
    "baseline_greedy",
    "lazy_greedy",
    "obs",
    "observe",
    "Statable",
    "Deadline",
    "deadline_scope",
    "BudgetExceeded",
    "open_database",
    "open_index",
    "ReadOnlyIndexError",
    "IndexClosedError",
    "__version__",
]

# repro.shard builds on repro.index and repro.obs, so it imports last.
from repro.shard import ShardedIndex, build_shards  # noqa: E402


def open_database(path) -> GraphDatabase:
    """Load a :class:`GraphDatabase` from a JSONL file (see
    :mod:`repro.graphs.io`).  The canonical way scripts and the CLI open a
    database."""
    from repro.graphs.io import load_database

    return load_database(path)


def open_index(
    path,
    database,
    distance=None,
    *,
    shards: bool | int | None = None,
    mutable: bool = False,
    journal=None,
    seed: int = 0,
):
    """Open any saved index — single or sharded, read-only or mutable.

    Every return value speaks the same ``Index`` protocol —
    ``query(query_fn, theta, k)``, ``stats()``,
    ``insert``/``delete``/``update``/``compact`` — with the mutation
    methods raising :class:`ReadOnlyIndexError` unless the index
    was opened with ``mutable=True``.

    ``path``
        A single-index ``.npz`` artifact, a sharded bundle's
        ``manifest.json``, or the bundle directory containing one.
    ``database``
        The :class:`GraphDatabase` the index was built over, or a path to
        its JSONL file (opened via :func:`open_database`).
    ``shards``
        ``None`` (default) auto-detects from ``path``; ``True`` /
        ``False`` force the sharded / single layout; an int additionally
        requires the bundle to have exactly that many shards.
    ``mutable``
        ``True`` wraps the loaded base in a
        :class:`~repro.delta.MutableIndex`: inserts land in an
        exactly-scanned memtable, deletes tombstone, and
        ``compact()`` absorbs the memtable online — with query answers
        bit-identical to a from-scratch build at every point.
    ``journal``
        Path to a mutation journal (``mutable=True`` only).  Existing
        records are replayed over the freshly opened database before the
        base index loads — reopening a mutated deployment restores it
        exactly; subsequent mutations append durably.  A *checkpointed*
        journal (generation > 0, see
        :func:`repro.durability.checkpoint`) pins its own base database
        file next to itself and verifies its crc32 before replay; pass
        ``database`` as a **path** in that case — the journal decides
        which file actually loads.
    ``seed``
        Accepted and ignored: a compaction grows the base's vantage frame
        and draws nothing (callers written when a single-index compaction
        re-drew its vantage points still pass it).
    """
    from pathlib import Path as _Path

    if distance is None:
        distance = StarDistance()
    if journal is not None and not mutable:
        raise ValueError(
            "journal= is only meaningful with mutable=True — a read-only "
            "open would silently ignore journaled mutations"
        )
    path = _Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    sharded = (
        path.suffix == ".json" if shards is None else bool(shards)
    )

    replayed = None
    if journal is not None:
        # The journal opens FIRST: a checkpointed generation's header
        # names the base file the records replay onto, overriding the
        # caller's database path.
        from repro.delta import MutationJournal
        from repro.durability.checkpoint import resolve_base_path

        replayed = MutationJournal(journal)
        if replayed.base_name is not None and not isinstance(
            database, (str, _Path)
        ):
            from repro.delta.errors import JournalError

            raise JournalError(
                f"{replayed.path}: this journal was checkpointed "
                f"(generation {replayed.generation}) and pins its own "
                f"base database file — pass database as a path, not a "
                f"loaded object, so the pinned base can load and verify"
            )
        if isinstance(database, (str, _Path)):
            base_path = resolve_base_path(replayed, database)
            database = open_database(base_path)
        replayed.replay_into(database)
    elif isinstance(database, (str, _Path)):
        database = open_database(database)

    # The index may cover fewer graphs than the (journaled) live
    # database — load it against the prefix snapshot it was built over.
    # A mutable single index snapshots even when nothing was journaled:
    # the live database grows in place, and a base aliasing it would be
    # saved (the scrubber's heal) with a fingerprint its coordinates do
    # not cover.  A bundle is only ever written back shard by shard.
    if sharded:
        from repro.shard.manifest import ShardManifest

        indexed = ShardManifest.load(path).num_graphs
    else:
        from repro.index.persistence import indexed_graph_count
        from repro.resilience.atomicio import read_checksummed

        payload = read_checksummed(path)  # one read: count, then load
        indexed = indexed_graph_count(path, payload)
    if indexed > len(database):
        from repro.resilience import DatabaseMismatchError

        raise DatabaseMismatchError(
            f"{path}: index covers {indexed} graphs but the database "
            f"has only {len(database)} — wrong database or missing "
            f"journal"
        )
    base_db = (
        database if indexed == len(database) and (sharded or not mutable)
        else database.subset(range(indexed))
    )
    if sharded:
        base = ShardedIndex.load(path, base_db, distance)
        if isinstance(shards, int) and not isinstance(shards, bool):
            from repro.utils.validation import require

            require(
                base.num_shards == shards,
                f"{path}: bundle has {base.num_shards} shards, "
                f"caller required {shards}",
            )
    else:
        from repro.index.persistence import load_index as _load_index

        base = _load_index(path, base_db, distance, payload)

    if not mutable:
        return base
    from repro.delta import MutableIndex

    return MutableIndex(
        database,
        base,
        distance=distance,
        journal=replayed,
        manifest_path=path if sharded else None,
        index_path=None if sharded else path,
    )
