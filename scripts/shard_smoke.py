#!/usr/bin/env python
"""CI smoke test for the sharded NB-Index.

Drives the real CLI end to end: generate a small database, build a
2-shard bundle with ``repro shard-build``, run the same query through
``repro query`` (single index, built in-process) and ``repro query
--shards`` (scatter-gather coordinator), and assert the two outputs are
**byte-for-byte identical** — same answer ids, gains, π, ordering, and
formatting.  Then queries the bundle through ``repro serve --shards`` over
the line protocol and checks the served answer and per-shard stats.

Run from the repo root: ``python scripts/shard_smoke.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, stdin: str | None = None) -> subprocess.CompletedProcess:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        input=stdin, capture_output=True, text=True, env=env, timeout=600,
    )


def main() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        db = tmp / "db.jsonl"
        bundle = tmp / "shards"

        generated = run_cli(
            "generate", "dud", "--num-graphs", "50", "--seed", "3",
            "--output", str(db),
        )
        if generated.returncode != 0:
            print(generated.stderr, file=sys.stderr)
            return 1

        built = run_cli(
            "shard-build", str(db), "--output", str(bundle),
            "--shards", "2", "--seed", "3",
        )
        if built.returncode != 0:
            failures.append(f"shard-build failed: {built.stderr}")
        manifest = bundle / "manifest.json"
        if not manifest.exists():
            failures.append("shard-build wrote no manifest.json")
        if failures:
            for failure in failures:
                print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
            return 1

        # Byte-for-byte: single-index output vs coordinator output.
        query_args = (str(db), "--k", "5", "--theta", "10", "--seed", "3")
        single = run_cli("query", *query_args)
        sharded = run_cli("query", *query_args, "--shards", str(manifest))
        if single.returncode != 0:
            failures.append(f"single query failed: {single.stderr}")
        if sharded.returncode != 0:
            failures.append(f"sharded query failed: {sharded.stderr}")
        if single.stdout != sharded.stdout:
            failures.append(
                "sharded output differs from single index:\n"
                f"--- single ---\n{single.stdout}"
                f"--- sharded ---\n{sharded.stdout}"
            )

        # The coordinator's ladder accounts for every candidate it asked a
        # frontier about: a tier-1 survivor that is not dropped against
        # remembered bounds (memo_prunes) opens every foreign window
        # (pi_hat_refines) and ends in exactly one of the three outcomes.
        metrics = tmp / "metrics.json"
        traced = run_cli(
            "query", *query_args, "--shards", str(manifest),
            "--metrics", str(metrics),
        )
        if traced.returncode != 0:
            failures.append(f"sharded query --metrics failed: {traced.stderr}")
        else:
            counters = json.loads(metrics.read_text())["metrics"]["counters"]
            coord = {
                key: int(counters.get(f"shard.coordinator.{key}", 0))
                for key in (
                    "pulls", "pi_hat_refines", "memo_prunes", "refine_prunes",
                    "partial_scatters", "scatter_resolves", "foreign_embeds",
                )
            }
            survivors = coord["pi_hat_refines"] + coord["memo_prunes"]
            outcomes = (
                coord["partial_scatters"] + coord["scatter_resolves"]
                + coord["refine_prunes"] + coord["memo_prunes"]
            )
            print(f"shard smoke: coordinator {coord}")
            if not coord["scatter_resolves"] or survivors != outcomes:
                failures.append(
                    f"coordinator accounting: {survivors} tier-1 survivors "
                    f"but {outcomes} outcomes ({coord})"
                )
            # One vantage frame per bundle: every graph's coordinates are
            # stored, so no shard ever measures a stranger's.
            if coord["foreign_embeds"]:
                failures.append(
                    f"{coord['foreign_embeds']} frame rows computed at query "
                    f"time on an immutable bundle"
                )
            # Against a *saved* single index: both sides start cold.
            single_metrics = tmp / "single-metrics.json"
            run_cli(
                "build-index", str(db), "--output", str(tmp / "index.npz"),
                "--seed", "3",
            )
            run_cli(
                "query", *query_args, "--index", str(tmp / "index.npz"),
                "--metrics", str(single_metrics),
            )
            single_calls = json.loads(single_metrics.read_text())[
                "metrics"]["counters"]["query.distance_calls"]
            sharded_calls = counters["query.distance_calls"]
            print(
                f"shard smoke: exact calls S=2 / single index = "
                f"{sharded_calls} / {single_calls} = "
                f"{sharded_calls / single_calls:.2f}"
            )

        # The bundle serves: one query + stats over the line protocol.
        requests = "\n".join([
            json.dumps({"id": 1, "op": "query", "theta": 10.0, "k": 5}),
            json.dumps({"id": 2, "op": "stats"}),
        ]) + "\n"
        served = run_cli(
            "serve", str(db), "--shards", str(manifest), stdin=requests
        )
        if served.returncode != 0:
            failures.append(f"serve --shards failed: {served.stderr}")
        else:
            responses = [
                json.loads(line) for line in served.stdout.splitlines()
            ]
            if len(responses) != 2 or not all(r["ok"] for r in responses):
                failures.append(f"serve responses not ok: {served.stdout}")
            else:
                answer = responses[0]["result"]["answer"]
                expected = [
                    int(line.split()[1])
                    for line in single.stdout.splitlines()
                    if line and line.split()[0].isdigit()
                ]
                if answer != expected:
                    failures.append(
                        f"served answer {answer} != CLI answer {expected}"
                    )
                index_stats = responses[1]["result"]["index"]
                if index_stats.get("num_shards") != 2:
                    failures.append(
                        f"stats missing shard roll-up: {index_stats}"
                    )

    if failures:
        for failure in failures:
            print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("shard smoke: OK (2-shard bundle byte-identical to single index)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
