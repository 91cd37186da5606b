#!/usr/bin/env python
"""CI chaos gate for replicated multi-process serving.

Serves one shard bundle (S=4) twice through the real CLI:

1. **Reference** — ``repro serve --shards`` (in process).
2. **Chaos** — ``repro serve --shards --replicas 2`` (two worker
   processes, each serving the whole bundle) with a ``FaultPlan``
   injected into the service process (via sitecustomize) that kills
   replica 0 every 40 ops *forever* and wedges one worker past the
   supervisor's wedge timeout.

Both runs answer the same 1000 mixed requests (queries, pings, stats).
The gate asserts:

* zero service exits (both processes finish their conversation and exit 0),
* a clean drain on both sides,
* every query and ping response is **byte-identical** between the runs —
  kills, wedge-kills, restarts, and failovers may move work around but
  must never change an answer bit,
* the chaos actually happened (failovers > 0, restarts > 0),
* no query was shed or failed,
* **the served path loads only what it runs** — a quarter of the way through the
  chaos conversation the server and every live worker are inspected
  through ``/proc/<pid>/maps``: none may have mapped a file of
  ``scipy.stats`` / ``scipy.sparse`` / ``scipy.spatial`` / ``networkx``,
  or of ``scipy.optimize`` other than the ``_lsap`` extension
  (:mod:`repro.ged.lsap`); the fleet is the server plus 1…R workers,
  never more; and what each process holds, as the ``stats`` op reports
  it (``process`` / ``index.replica.rss_mb``, one number per live
  worker), stays within a per-process budget.

Run from the repo root: ``python scripts/replica_smoke.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from validate_metrics import SCHEMA_PATH, ValidationError, validate_node

ROOT = Path(__file__).resolve().parents[1]
NUM_REQUESTS = 1000
NUM_SHARDS = 4
REPLICAS = 2

#: Packages no serving process may map a file of; ``scipy/optimize/`` is
#: allowed exactly one: the ``_lsap`` extension.
FORBIDDEN_DIRS = (
    "/scipy/stats/", "/scipy/sparse/", "/scipy/spatial/", "/networkx/",
)
#: Per-process budgets at this n (48 dblp graphs), next to what was
#: measured when they were set: server peak 37.6 MB, workers 31.2–31.7 MB
#: resident.  Importing scipy.optimize alone adds 51 MB to a process, the
#: four eager imports this gate guards against added 84 MB.
SERVER_PEAK_BUDGET_MB = 70.0
WORKER_RSS_BUDGET_MB = 50.0


def build_requests() -> list[str]:
    """Deterministic mix: 70% queries over varying (θ, k, quantile),
    20% pings, 10% stats."""
    lines = []
    for i in range(NUM_REQUESTS):
        bucket = i % 10
        if bucket < 7:
            lines.append(json.dumps({
                "id": i, "op": "query", "theta": 6.0 + (i % 4),
                "k": 1 + (i % 5), "quantile": 0.4 + 0.1 * (i % 3),
            }))
        elif bucket < 9:
            lines.append(json.dumps({"id": i, "op": "ping"}))
        else:
            lines.append(json.dumps({"id": i, "op": "stats"}))
    return lines


def run_cli(*argv, timeout=300):
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    if completed.returncode != 0:
        print(completed.stdout)
        print(completed.stderr, file=sys.stderr)
        raise SystemExit(f"setup command failed: {argv}")
    return completed


def serve_argv(db, *extra_args):
    return [sys.executable, "-m", "repro.cli", "serve", str(db),
            "--concurrency", "2", "--max-queue", str(NUM_REQUESTS + 8),
            *extra_args]


def serve(db, requests, *extra_args, pythonpath):
    return subprocess.run(
        serve_argv(db, *extra_args), cwd=ROOT,
        input="\n".join(requests) + "\n",
        capture_output=True, text=True, timeout=540,
        env={"PYTHONPATH": pythonpath, "PATH": "/usr/bin:/bin"},
    )


def child_pids(parent: int) -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we were listing
        if int(stat.rsplit(")", 1)[1].split()[1]) == parent:
            pids.append(int(entry))
    return pids


def unwanted_mappings(pid: int) -> list[str]:
    """Files ``pid`` has mapped that the query path has no business with."""
    try:
        lines = Path(f"/proc/{pid}/maps").read_text().splitlines()
    except OSError:
        return []  # a worker the chaos plan killed just now
    # address perms offset dev inode [pathname]
    paths = {
        fields[5] for fields in (line.split(None, 5) for line in lines)
        if len(fields) == 6
    }
    return sorted(
        path for path in paths
        if any(part in path for part in FORBIDDEN_DIRS)
        or ("/scipy/optimize/" in path
            and not os.path.basename(path).startswith("_lsap"))
    )


def serve_inspected(db, requests, *extra_args, pythonpath, tmp, wedge_token):
    """:func:`serve` with a look inside: once a quarter of the responses
    are out — the fleet is mid-conversation, kill churn included — read
    what the server and each of its workers have mapped, then arm the
    one-shot wedge by creating ``wedge_token``.  Armed from the start, the
    wedge would take replica 0's very first op, and the 5 s until its
    wedge-kill outlast the whole conversation on replica 1: no kill churn
    would ever happen.  Returns the completed process and ``{pid:
    unwanted mappings}``."""
    argv = serve_argv(db, *extra_args)
    out_path, err_path = tmp / "chaos.out", tmp / "chaos.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(
            argv, cwd=ROOT, stdin=subprocess.PIPE, stdout=out, stderr=err,
            text=True, env={"PYTHONPATH": pythonpath, "PATH": "/usr/bin:/bin"},
        )
        try:
            proc.stdin.write("\n".join(requests) + "\n")
            proc.stdin.close()
            deadline = time.monotonic() + 540
            while (proc.poll() is None and time.monotonic() < deadline
                   and out_path.read_text().count("\n") < len(requests) // 4):
                time.sleep(0.05)
            mapped = {
                pid: unwanted_mappings(pid)
                for pid in [proc.pid, *child_pids(proc.pid)]
            }
            wedge_token.write_text("wedge")
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    completed = subprocess.CompletedProcess(
        argv, proc.returncode, out_path.read_text(), err_path.read_text()
    )
    return completed, mapped


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="replica-smoke-"))
    db = tmp / "db.jsonl"
    shards = tmp / "shards"
    metrics = tmp / "metrics.json"

    run_cli("generate", "dblp", "--num-graphs", "48", "--seed", "7",
            "--output", str(db))
    run_cli("shard-build", str(db), "--shards", str(NUM_SHARDS),
            "--output", str(shards), "--vantage-points", "5")
    manifest = shards / "manifest.json"

    requests = build_requests()
    src_path = str(ROOT / "src")

    # Reference: the in-process bundle, one index over its frame.
    reference = serve(db, requests, "--shards", str(manifest),
                      pythonpath=src_path)

    # Chaos: replica 0 dies every 40 ops (each restarted process serves
    # 39 more and dies again — sustained churn), and, once armed
    # mid-conversation, wedges past the supervisor's 5s wedge timeout,
    # forcing a wedge-kill plus failover.  Replica 1 never dies, so every
    # answer must still come out bit-identical.
    wedge_token = tmp / "wedge-token"
    (tmp / "sitecustomize.py").write_text(
        "from repro.resilience import faults\n"
        "from repro.resilience.faults import FaultPlan\n"
        "faults.install(FaultPlan(\n"
        "    replica_kill_every=40,\n"
        "    replica_kill_replicas=(0,),\n"
        f"    replica_wedge_token={str(wedge_token)!r},\n"
        "    replica_wedge_seconds=8.0,\n"
        "))\n"
    )
    chaos, mapped = serve_inspected(
        db, requests, "--shards", str(manifest), "--replicas", str(REPLICAS),
        "--metrics", str(metrics), pythonpath=f"{tmp}:{src_path}", tmp=tmp,
        wedge_token=wedge_token,
    )

    failures = []
    for name, completed in (("reference", reference), ("chaos", chaos)):
        if completed.returncode != 0:
            failures.append(
                f"{name} service exited {completed.returncode} "
                f"(stderr: {completed.stderr[-2000:]})"
            )
        if ("drained" not in completed.stderr
                or "'clean': True" not in completed.stderr):
            failures.append(
                f"{name}: no clean drain: {completed.stderr[-500:]}"
            )

    # Workers answer out of request order under --concurrency 2, so key
    # every response by id before comparing.
    def by_id(completed, name):
        responses = {}
        for line in completed.stdout.splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            responses[obj.get("id")] = (line, obj)
        if len(responses) != NUM_REQUESTS:
            failures.append(
                f"{name}: expected {NUM_REQUESTS} responses, "
                f"got {len(responses)}"
            )
        return responses

    ref_responses = by_id(reference, "reference")
    chaos_responses = by_id(chaos, "chaos")

    compared = mismatched = 0
    for rid in sorted(set(ref_responses) & set(chaos_responses)):
        ref_line, ref_obj = ref_responses[rid]
        chaos_line, chaos_obj = chaos_responses[rid]
        if not (ref_obj.get("ok") and chaos_obj.get("ok")):
            failures.append(
                f"non-ok response: id={rid} "
                f"ref={ref_obj.get('error')} chaos={chaos_obj.get('error')}"
            )
            continue
        result = chaos_obj.get("result", {})
        if "pong" in result or "answer" in result:
            compared += 1
            if ref_line != chaos_line:  # byte-identical, not just equal
                mismatched += 1
                if mismatched <= 3:
                    failures.append(
                        f"answer diverged under chaos: id={rid}\n"
                        f"  ref:   {ref_line[:220]}\n"
                        f"  chaos: {chaos_line[:220]}"
                    )

    if mismatched:
        failures.append(f"{mismatched}/{compared} answers diverged")
    if compared < NUM_REQUESTS * 8 // 10:
        failures.append(
            f"only {compared} comparable responses — mix generator broke?"
        )
    if wedge_token.exists():
        failures.append("wedge token never claimed — wedge chaos inert")

    if not metrics.exists():
        failures.append("chaos run flushed no metrics document")
    else:
        counters = json.loads(metrics.read_text())["metrics"]["counters"]
        for needed in ("replica.failovers", "replica.restarts"):
            if not counters.get(needed):
                failures.append(
                    f"chaos never exercised {needed} "
                    f"(counters: { {k: v for k, v in counters.items() if k.startswith('replica.')} })"
                )
        print("replica counters:", {
            k: v for k, v in sorted(counters.items())
            if k.startswith("replica.")
        })

    # Footprint: what the live fleet had mapped, and what it held.  The
    # fleet is R workers whatever the shard count; mid-churn 1..R of them
    # are alive beside the server, never more.
    if not 2 <= len(mapped) <= 1 + REPLICAS:
        failures.append(
            f"inspected {len(mapped)} live processes; expected the server "
            f"and 1..{REPLICAS} workers"
        )
    for pid, paths in mapped.items():
        if paths:
            failures.append(
                f"pid {pid} mapped {len(paths)} files the query path never "
                f"runs, e.g. {paths[:3]}"
            )
    last_stats = max(
        (obj for _, obj in chaos_responses.values()
         if "uptime_seconds" in obj.get("result", {})),
        key=lambda obj: obj["id"], default=None,
    )
    if last_stats is None:
        failures.append("no stats response to read the footprint from")
    else:
        process = last_stats["result"].get("process")
        workers = last_stats["result"]["index"]["replica"].get("rss_mb")
        schema = json.loads(SCHEMA_PATH.read_text())
        try:
            validate_node(process, schema["$defs"]["process_stats"], schema)
            validate_node(workers, schema["$defs"]["replica_rss_mb"], schema)
        except ValidationError as error:
            failures.append(f"stats footprint section malformed: {error}")
        else:
            resident = sorted(workers)
            print(
                f"footprint ({len(mapped)} processes' maps read): server "
                f"peak_rss_mb {process['peak_rss_mb']:.1f} (budget "
                f"{SERVER_PEAK_BUDGET_MB:g}); live workers' rss_mb "
                f"{[round(rss, 1) for rss in resident]} (budget "
                f"{WORKER_RSS_BUDGET_MB:g} each)"
            )
            if process["peak_rss_mb"] > SERVER_PEAK_BUDGET_MB:
                failures.append(
                    f"server peak_rss_mb {process['peak_rss_mb']:.1f} over "
                    f"its {SERVER_PEAK_BUDGET_MB:g} MB budget"
                )
            if not resident or resident[-1] > WORKER_RSS_BUDGET_MB:
                failures.append(
                    f"workers hold {resident} MB; each must report, within "
                    f"the {WORKER_RSS_BUDGET_MB:g} MB budget"
                )

    print(f"compared {compared} answers under kill/wedge chaos; "
          f"{mismatched} diverged")
    if failures:
        print("\nREPLICA SMOKE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("replica smoke OK: zero exits, clean drains, bit-identical "
          "answers under sustained replica churn")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
