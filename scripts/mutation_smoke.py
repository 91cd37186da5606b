#!/usr/bin/env python
"""CI smoke test for the live-mutation layer (`repro.delta`).

Mutates a served index under a chaos ``FaultPlan`` — inserts, deletes,
an update, then a compaction that is *crashed mid-flight* by the plan —
and asserts the LSM contract end to end:

* the crashed compaction rolls back: old generation serving, failure
  reported exactly once, the on-disk artifact untouched;
* a clean retry absorbs the memtable and bumps the generation;
* a restart while the caller keeps the closed handle: the stale
  handle's mutations, compaction and checkpoint raise
  ``IndexClosedError`` and leave the journal's bytes alone, and the
  reopened handle's acknowledged mutations survive a second restart;
* the journal makes it durable: a fresh ``repro query --journal`` CLI
  process replays base-file + journal and answers **byte-for-byte**
  identically to a from-scratch rebuild over the saved mutated database
  (same answer ids, gains, π, ordering, formatting).

Both layouts run: a single ``--index`` artifact and a 4-shard
``--shards`` bundle (where the crash lands mid shard rebuild and the
clean retry reuses every unchanged shard).

Run from the repo root: ``python scripts/mutation_smoke.py``.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

BASE_GRAPHS = 36
THETA = "10"


def run_cli(*args) -> subprocess.CompletedProcess:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=env, timeout=600,
    )


def mutate_under_chaos(
    artifact: Path, base_path: Path, journal_path: Path, full_db,
    crash_stage: str, *, sharded: bool, failures: list[str],
):
    """The in-process half: mutate, crash one compaction, retry, mutate
    again so the journal holds post-compaction records too.  Returns the
    closed index."""
    import repro
    from repro.delta import CompactionError
    from repro.resilience import faults

    index = repro.open_index(
        artifact, base_path, mutable=True,
        journal=journal_path, shards=sharded,
    )
    theta = float(THETA)
    for gid in range(BASE_GRAPHS, BASE_GRAPHS + 4):
        index.insert(full_db[gid], full_db.features[gid])
    index.delete(3)
    index.update(7, full_db[BASE_GRAPHS + 4], full_db.features[BASE_GRAPHS + 4])
    before = index.query(lambda g: True, theta, 5)

    faults.install(faults.FaultPlan(abort_after_stage=crash_stage))
    try:
        index.compact()
        failures.append(f"{crash_stage}: compaction survived the crash plan")
    except CompactionError:
        pass
    finally:
        faults.clear()
    if index.generation != 0:
        failures.append(f"crashed compaction bumped generation to "
                        f"{index.generation}")
    if index.compaction_failures != 1:
        failures.append(f"rollback reported {index.compaction_failures} "
                        f"times, expected exactly once")
    after_crash = index.query(lambda g: True, theta, 5)
    if (after_crash.answer, after_crash.gains) != (before.answer, before.gains):
        failures.append("old generation stopped serving after the crash")

    report = index.compact()
    if index.generation != 1 or report["absorbed"] != 5:
        failures.append(f"clean retry did not absorb the memtable: {report}")
    if sharded and report["reused_shards"] < 1:
        failures.append(f"sharded compaction reused no shards: {report}")

    # Post-compaction mutations: the journal must replay across the swap.
    index.insert(full_db[BASE_GRAPHS + 5], full_db.features[BASE_GRAPHS + 5])
    index.delete(11)
    index.query(lambda g: True, theta, 5)
    if index.stats()["delta"]["journal_records"] != 8:
        failures.append("journal does not hold all eight mutation records")
    index.close()
    return index


def restart_drill(
    stale, artifact: Path, base_path: Path, journal_path: Path, full_db,
    *, sharded: bool, failures: list[str],
) -> None:
    """Restart while the caller still holds the closed handle: every write
    through the stale handle refuses, typed, and touches no file; the
    reopened handle's acknowledged mutations survive a second restart."""
    import repro
    from repro.index.errors import IndexClosedError

    def reopen():
        return repro.open_index(
            artifact, base_path, mutable=True,
            journal=journal_path, shards=sharded,
        )

    reopened = reopen()
    reopened.insert(full_db[BASE_GRAPHS + 6], full_db.features[BASE_GRAPHS + 6])
    reopened.delete(13)
    acknowledged = (len(reopened.database), reopened.database.deleted)
    journal_bytes = journal_path.read_bytes()
    row = BASE_GRAPHS + 7
    for name, call in {
        "insert": lambda: stale.insert(full_db[row], full_db.features[row]),
        "delete": lambda: stale.delete(5),
        "update": lambda: stale.update(6, full_db[row], full_db.features[row]),
        "compact": stale.compact,
        "checkpoint": stale.checkpoint,
    }.items():
        try:
            call()
            failures.append(f"stale handle's {name} did not refuse")
        except IndexClosedError:
            pass
    if journal_path.read_bytes() != journal_bytes:
        failures.append("a stale handle changed the journal's bytes")
    reopened.close()
    restarted = reopen()
    survived = (len(restarted.database), restarted.database.deleted)
    restarted.close()
    if survived != acknowledged:
        failures.append(
            f"acknowledged mutations lost across a restart: "
            f"{survived} != {acknowledged}"
        )


def main() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        full_path = tmp / "full.jsonl"
        generated = run_cli("generate", "dud", "--num-graphs", "44",
                            "--seed", "3", "--output", str(full_path))
        if generated.returncode != 0:
            print(generated.stderr, file=sys.stderr)
            return 1

        from repro.graphs.io import load_database, save_database

        full_db = load_database(full_path)
        base_path = tmp / "base.jsonl"
        save_database(full_db.subset(range(BASE_GRAPHS)), base_path)

        idx = tmp / "idx.npz"
        bundle = tmp / "bundle"
        for step in (
            run_cli("build-index", str(base_path), "--output", str(idx),
                    "--seed", "3"),
            run_cli("shard-build", str(base_path), "--output", str(bundle),
                    "--shards", "4", "--seed", "3"),
        ):
            if step.returncode != 0:
                print(step.stderr, file=sys.stderr)
                return 1

        layouts = [
            ("single", idx, False, "delta.compact.commit",
             ("--index", str(idx))),
            ("sharded", bundle / "manifest.json", True, "delta.compact.shard",
             ("--shards", str(bundle / "manifest.json"))),
        ]
        for name, artifact, sharded, crash_stage, cli_flags in layouts:
            journal = tmp / f"{name}.journal"
            stale = mutate_under_chaos(
                artifact, base_path, journal, full_db, crash_stage,
                sharded=sharded, failures=failures,
            )
            restart_drill(
                stale, artifact, base_path, journal, full_db,
                sharded=sharded, failures=failures,
            )

            # Byte-for-byte: journal replay vs rebuild over the saved
            # mutated database (tombstones round-trip through the file).
            import repro

            reopened = repro.open_index(
                artifact, base_path, mutable=True,
                journal=journal, shards=sharded,
            )
            mutated_path = tmp / f"{name}-mutated.jsonl"
            snapshot = reopened.database.subset(
                range(len(reopened.database))
            )
            for gid in reopened.database.deleted:
                snapshot.mark_deleted(gid)
            save_database(snapshot, mutated_path)
            reopened.close()

            query_args = ("--k", "5", "--theta", THETA, "--seed", "3")
            live = run_cli("query", str(base_path), *cli_flags,
                           "--journal", str(journal), *query_args)
            rebuilt = run_cli("query", str(mutated_path), *query_args)
            if live.returncode != 0:
                failures.append(f"{name}: live query failed: {live.stderr}")
            if rebuilt.returncode != 0:
                failures.append(f"{name}: rebuild query failed: "
                                f"{rebuilt.stderr}")
            if live.stdout != rebuilt.stdout:
                failures.append(
                    f"{name}: mutated-index output differs from rebuild:\n"
                    f"--- live (journal replay) ---\n{live.stdout}"
                    f"--- rebuilt from scratch ---\n{rebuilt.stdout}"
                )

    if failures:
        for failure in failures:
            print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("mutation smoke: OK (crash rollback + stale-handle restart "
          "drill + journal replay byte-identical to rebuild, single and "
          "4-shard)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
