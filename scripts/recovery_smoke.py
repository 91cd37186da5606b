#!/usr/bin/env python
"""CI power-failure chaos gate for the durability layer (`repro.durability`).

Re-invokes itself as a driver subprocess with ``REPRO_FAULT_KILL`` set,
so the process is killed — ``os._exit(137)``, no cleanup, no atexit —
at randomized fsync/rename points during mutation, checkpoint, backup
and restore.  After every kill the parent asserts the crash-consistency
contract:

* ``base + journal = database``: a fresh ``repro query --journal`` CLI
  process over the survivors answers **byte-for-byte** identically to a
  from-scratch rebuild over the logical database the survivors encode;
* ``checkpoint`` (both the in-process admin op and the offline CLI)
  shrinks the live journal to zero mutation records and a crash at any
  injected point reopens at exactly the old or the new generation;
* a killed ``backup``/``restore`` leaves either nothing or a fully
  verified archive/deployment — never a partial one — and ``repro
  verify`` refuses every single-bit flip injected into an archive;
* ``repro backup`` of a checkpointed journal whose pinned base fails its
  crc32 exits non-zero and leaves no destination;
* a backup is the base database + journal only: a restore plus ``repro
  build-index`` over the restored base answers byte-for-byte like the
  live deployment;
* the scrubber detects 100% of injected single-bit flips across shard
  npz / manifest / journal artifacts, heals every artifact flip (a shard
  is rebuilt from the serving frame) and escalates the journal's, with
  ``durability.*`` counters in the metrics document (validated against
  ``scripts/metrics_schema.json``).

Run from the repo root: ``python scripts/recovery_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

BASE_GRAPHS = 36
THETA = "10"
QUERY_ARGS = ("--k", "5", "--theta", THETA, "--seed", "3")

#: Kill points swept for the mutate-then-checkpoint driver.  ``None`` is
#: the clean control run; ``site:N`` skips the first N hits so the kill
#: lands mid-sequence, not on the first append.
MUTATE_KILLS = [
    None,
    "durability.journal.append",
    "durability.journal.fsync:2",
    "durability.checkpoint.base",
    "durability.checkpoint.journal",
    "durability.checkpoint.commit",
]


def run_cli(*args, env_extra=None) -> subprocess.CompletedProcess:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=env, timeout=600,
    )


def run_driver(mode: str, *args, kill: str | None) -> subprocess.CompletedProcess:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    if kill is not None:
        env["REPRO_FAULT_KILL"] = kill
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--driver", mode, *args],
        capture_output=True, text=True, env=env, timeout=600,
    )


# ---------------------------------------------------------------------------
# Driver half (runs in the subprocess that gets killed)
# ---------------------------------------------------------------------------
def driver_mutate(args) -> int:
    """Insert/delete/update, checkpoint online, mutate again.  With
    ``REPRO_FAULT_KILL`` in the environment some step never returns."""
    import repro
    from repro.graphs.io import load_database

    full_db = load_database(args.full)
    index = repro.open_index(
        args.artifact, args.base, mutable=True,
        journal=args.journal, shards=args.sharded,
    )
    for gid in range(BASE_GRAPHS, BASE_GRAPHS + 3):
        index.insert(full_db[gid], full_db.features[gid])
    index.delete(3)
    index.update(7, full_db[BASE_GRAPHS + 3], full_db.features[BASE_GRAPHS + 3])
    index.checkpoint()
    index.insert(full_db[BASE_GRAPHS + 4], full_db.features[BASE_GRAPHS + 4])
    index.delete(11)
    index.close()
    return 0


def driver_backup(args) -> int:
    from repro.durability import create_backup

    create_backup(args.out, database=args.base or None, journal=args.journal)
    return 0


def driver_restore(args) -> int:
    from repro.durability import restore_backup

    restore_backup(args.backup, args.dest)
    return 0


# ---------------------------------------------------------------------------
# Parent half: assertions after each kill
# ---------------------------------------------------------------------------
def snapshot_logical_database(artifact, base, journal, sharded, out_path):
    """Reopen the survivors (journal replay) and save the logical
    database — tombstones round-trip through the file."""
    import repro
    from repro.graphs.io import save_database

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # torn tails
        reopened = repro.open_index(
            artifact, base, mutable=True, journal=journal, shards=sharded,
        )
    snapshot = reopened.database.subset(range(len(reopened.database)))
    for gid in reopened.database.deleted:
        snapshot.mark_deleted(gid)
    save_database(snapshot, out_path)
    generation = reopened.journal.generation
    records = reopened.journal.num_records
    reopened.close()
    return generation, records


def assert_bit_identical_reopen(
    name, artifact, base, journal, sharded, cli_flags, tmp, failures,
):
    """The gate: CLI query over base+journal vs a from-scratch rebuild."""
    mutated = tmp / f"{name}-mutated.jsonl"
    generation, records = snapshot_logical_database(
        artifact, base, journal, sharded, mutated,
    )
    live = run_cli("query", str(base), *cli_flags,
                   "--journal", str(journal), *QUERY_ARGS)
    rebuilt = run_cli("query", str(mutated), *QUERY_ARGS)
    if live.returncode != 0:
        failures.append(f"{name}: live query failed: {live.stderr}")
    if rebuilt.returncode != 0:
        failures.append(f"{name}: rebuild query failed: {rebuilt.stderr}")
    if live.stdout != rebuilt.stdout:
        failures.append(
            f"{name}: reopen is not bit-identical to rebuild:\n"
            f"--- live (base + journal) ---\n{live.stdout}"
            f"--- rebuilt from scratch ---\n{rebuilt.stdout}"
        )
    return generation, records


def sweep_mutate_kills(tmp, full_path, base_path, idx, bundle, failures):
    from repro.delta.journal import scan_journal

    layouts = [
        ("single", idx, False, ("--index", str(idx)), MUTATE_KILLS),
        ("sharded", bundle / "manifest.json", True,
         ("--shards", str(bundle / "manifest.json")),
         [None, "durability.journal.append",
          "durability.checkpoint.journal", "durability.checkpoint.commit"]),
    ]
    for name, artifact, sharded, cli_flags, kills in layouts:
        for kill in kills:
            tag = f"{name}/{kill or 'clean'}"
            journal = tmp / f"{name}-{(kill or 'clean').replace(':', '-')}.journal"
            driver_args = [
                "--artifact", str(artifact), "--base", str(base_path),
                "--journal", str(journal), "--full", str(full_path),
            ]
            if sharded:
                driver_args.append("--sharded")
            proc = run_driver("mutate", *driver_args, kill=kill)
            if kill is None and proc.returncode != 0:
                failures.append(f"{tag}: clean run failed: {proc.stderr}")
                continue
            if kill is not None and proc.returncode != 137:
                failures.append(
                    f"{tag}: expected the driver killed with exit 137, "
                    f"got {proc.returncode}: {proc.stderr}"
                )
                continue
            generation, records = assert_bit_identical_reopen(
                tag.replace("/", "-"), artifact, base_path, journal,
                sharded, cli_flags, tmp, failures,
            )
            if kill is None:
                # Checkpoint shrank the journal: generation 1 holds only
                # the two post-checkpoint records.
                if generation != 1 or records != 2:
                    failures.append(
                        f"{tag}: expected generation 1 with 2 carried "
                        f"records, got generation {generation} with "
                        f"{records}"
                    )
                # The offline CLI folds those too.
                folded = run_cli("checkpoint", str(base_path),
                                 "--journal", str(journal))
                if folded.returncode != 0:
                    failures.append(
                        f"{tag}: offline checkpoint failed: {folded.stderr}"
                    )
                scan = scan_journal(journal)
                if scan["generation"] != 2 or scan["records"] != 0:
                    failures.append(
                        f"{tag}: offline checkpoint left generation "
                        f"{scan['generation']} with {scan['records']} "
                        f"records, expected a 0-record generation 2"
                    )
                assert_bit_identical_reopen(
                    f"{tag.replace('/', '-')}-folded", artifact, base_path,
                    journal, sharded, cli_flags, tmp, failures,
                )
            elif kill.startswith("durability.checkpoint"):
                expected = 1 if kill.endswith("commit") else 0
                if generation != expected:
                    failures.append(
                        f"{tag}: reopened at generation {generation}, "
                        f"expected {expected} (commit point is the rename)"
                    )


def sweep_backup_restore_kills(tmp, base_path, idx, failures):
    # A journal with real records to snapshot.
    journal = tmp / "bk.journal"
    proc = run_driver(
        "mutate", "--artifact", str(idx), "--base", str(base_path),
        "--journal", str(journal), "--full", str(tmp / "full.jsonl"),
        kill=None,
    )
    if proc.returncode != 0:
        failures.append(f"backup setup mutate failed: {proc.stderr}")
        return

    for kill in ("durability.backup.copy", "durability.backup.manifest",
                 "durability.backup.commit"):
        out = tmp / f"bk-{kill.rsplit('.', 1)[1]}"
        proc = run_driver(
            "backup", "--out", str(out), "--journal", str(journal), kill=kill,
        )
        if proc.returncode != 137:
            failures.append(f"{kill}: expected exit 137, got "
                            f"{proc.returncode}: {proc.stderr}")
            continue
        committed = kill.endswith("commit")
        if out.exists() != committed:
            failures.append(
                f"{kill}: backup dir {'missing' if committed else 'exists'} "
                f"after the kill — partial archive"
            )
        if not committed:
            # Stale staging from the hard kill must never block a retry.
            retry = run_driver(
                "backup", "--out", str(out), "--journal", str(journal),
                kill=None,
            )
            if retry.returncode != 0:
                failures.append(
                    f"{kill}: retry after the kill failed: {retry.stderr}"
                )
        verify = run_cli("verify", str(out))
        if verify.returncode != 0:
            failures.append(
                f"{kill}: backup fails verify after "
                f"{'the kill' if committed else 'the retry'}: "
                f"{verify.stderr}"
            )

    # A clean archive for the restore sweep and the flip audit.
    archive = tmp / "bk-clean"
    proc = run_driver("backup", "--out", str(archive),
                      "--journal", str(journal), kill=None)
    if proc.returncode != 0:
        failures.append(f"clean backup failed: {proc.stderr}")
        return

    # A journal whose pinned base rotted cannot be restored from: the
    # backup runs the check an open makes, refuses, and writes nothing.
    pinned = next(tmp.glob(f"{journal.name}.base-gen*.jsonl"))
    pristine = pinned.read_bytes()
    rotted = bytearray(pristine)
    rotted[len(rotted) // 2] ^= 0x01
    pinned.write_bytes(bytes(rotted))
    refused = run_cli("backup", str(tmp / "bk-rotted"),
                      "--journal", str(journal))
    pinned.write_bytes(pristine)
    if refused.returncode == 0:
        failures.append("backup accepted a journal whose pinned base fails "
                        "the crc32 in its header")
    if (tmp / "bk-rotted").exists():
        failures.append("a refused backup still wrote its destination")

    for kill in ("durability.restore.install", "durability.restore.commit"):
        dest = tmp / f"restored-{kill.rsplit('.', 1)[1]}"
        proc = run_driver("restore", "--backup", str(archive),
                          "--dest", str(dest), kill=kill)
        if proc.returncode != 137:
            failures.append(f"{kill}: expected exit 137, got "
                            f"{proc.returncode}: {proc.stderr}")
            continue
        committed = kill.endswith("commit")
        if dest.exists() != committed:
            failures.append(
                f"{kill}: destination {'missing' if committed else 'exists'} "
                f"after the kill — partial install"
            )

    # Every single-bit flip in the archive is refused, loudly.  (The
    # checkpointed journal pinned its own base, so that file — not the
    # original base.jsonl — is what the archive carries.)
    victim = next(archive.glob("*.base-gen*.jsonl"))
    pristine = victim.read_bytes()
    flipped = bytearray(pristine)
    flipped[len(flipped) // 2] ^= 0x01
    victim.write_bytes(bytes(flipped))
    if run_cli("verify", str(archive)).returncode == 0:
        failures.append("verify accepted an archive with a flipped bit")
    if run_cli("restore", str(archive), str(tmp / "poisoned")).returncode == 0:
        failures.append("restore installed from an archive that fails verify")
    if (tmp / "poisoned").exists():
        failures.append("refused restore still wrote its destination")
    victim.write_bytes(pristine)

    # The archive is the base + journal, nothing derived.
    archived = sorted(p.name for p in archive.iterdir())
    if archived != sorted(["backup.json", "bk.journal", victim.name]):
        failures.append(f"backup holds more than base + journal: {archived}")

    # Clean restore round-trips: rebuild the index over the restored base,
    # and the restored deployment answers byte-identically to the original.
    restored = tmp / "restored-clean"
    if run_cli("restore", str(archive), str(restored)).returncode != 0:
        failures.append("clean restore failed")
        return
    restored_base = next(restored.glob("*.base-gen*.jsonl"))
    rebuilt = run_cli("build-index", str(restored_base),
                      "--output", str(restored / "idx.npz"), "--seed", "3")
    if rebuilt.returncode != 0:
        failures.append(f"index rebuild after restore failed: {rebuilt.stderr}")
        return
    live = run_cli("query", str(base_path), "--index", str(idx),
                   "--journal", str(journal), *QUERY_ARGS)
    again = run_cli("query", str(restored_base),
                    "--index", str(restored / "idx.npz"),
                    "--journal", str(restored / "bk.journal"), *QUERY_ARGS)
    if live.stdout != again.stdout or again.returncode != 0:
        failures.append(
            f"restored deployment answers differently:\n--- original ---\n"
            f"{live.stdout}--- restored ---\n{again.stdout}{again.stderr}"
        )


def scrub_gate(tmp, base_path, bundle, failures):
    """In-process: the scrubber must detect every injected flip, heal
    every artifact's (a shard by rebuild) and escalate the journal's,
    without moving query answers."""
    import repro
    from repro import obs
    from repro.durability import Scrubber, verify_deployment

    manifest_path = bundle / "manifest.json"
    journal = tmp / "scrub.journal"
    with repro.observe() as run:
        index = repro.open_index(
            manifest_path, base_path, mutable=True,
            journal=journal, shards=True,
        )
        from repro.graphs.io import load_database

        full_db = load_database(tmp / "full.jsonl")
        index.insert(full_db[40], full_db.features[40])
        index.delete(5)
        theta = float(THETA)
        before = index.query(lambda g: True, theta, 5)
        scrubber = Scrubber(index, database_path=base_path)

        detected = healed = injected = 0
        for victim in sorted(bundle.glob("*.npz")) + [manifest_path]:
            pristine = victim.read_bytes()
            corrupt = bytearray(pristine)
            corrupt[len(corrupt) // 2] ^= 0x01
            victim.write_bytes(bytes(corrupt))
            injected += 1
            report = scrubber.scrub_once()
            detected += 1 if report["corruptions"] else 0
            healed += 1 if report["healed"] else 0
        # A flipped *non-final* journal record: detected, escalated,
        # never silently healed (the journal is the only copy).
        lines = journal.read_bytes().splitlines(keepends=True)
        record = bytearray(lines[1])
        record[14] ^= 0x01
        lines[1] = bytes(record)
        pristine_journal = journal.read_bytes()
        journal.write_bytes(b"".join(lines))
        injected += 1
        report = scrubber.scrub_once()
        if report["corruptions"]:
            detected += 1
        if report["healed"]:
            failures.append("scrubber 'healed' a corrupt journal")
        if not report["escalations"]:
            failures.append("journal corruption did not escalate")
        journal.write_bytes(pristine_journal)

        if detected != injected:
            failures.append(
                f"scrubber detected {detected}/{injected} injected flips"
            )
        if healed != injected - 1:  # every artifact but the journal heals
            failures.append(
                f"scrubber healed {healed}/{injected - 1} healable flips"
            )
        if not verify_deployment(bundle)["ok"]:
            failures.append("bundle does not verify after the heals")
        after = index.query(lambda g: True, theta, 5)
        if (after.answer, after.gains) != (before.answer, before.gains):
            failures.append("queries moved while the scrubber healed")
        index.close()

        metrics_path = tmp / "scrub-metrics.json"
        run.write(str(metrics_path))

    validate = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "validate_metrics.py"),
         str(metrics_path),
         "--require", "durability.scrub_cycles",
         "--require", "durability.scrub_corruptions",
         "--require", "durability.scrub_heals"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=600,
    )
    if validate.returncode != 0:
        failures.append(
            f"scrub metrics fail schema validation: "
            f"{validate.stdout}{validate.stderr}"
        )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--driver", choices=["mutate", "backup", "restore"])
    parser.add_argument("--artifact")
    parser.add_argument("--base")
    parser.add_argument("--journal")
    parser.add_argument("--full")
    parser.add_argument("--sharded", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--backup")
    parser.add_argument("--dest")
    args = parser.parse_args()
    if args.driver == "mutate":
        return driver_mutate(args)
    if args.driver == "backup":
        return driver_backup(args)
    if args.driver == "restore":
        return driver_restore(args)

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
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

        sweep_mutate_kills(tmp, full_path, base_path, idx, bundle, failures)
        sweep_backup_restore_kills(tmp, base_path, idx, failures)
        scrub_gate(tmp, base_path, bundle, failures)

    if failures:
        for failure in failures:
            print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("recovery smoke: OK (kill -9 at every injected fsync/rename "
          "point reopens bit-identical; checkpoint shrinks the journal; "
          "backup/restore all-or-nothing, base + journal rebuild "
          "identically; scrubber detected every injected flip and healed "
          "every artifact's)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
