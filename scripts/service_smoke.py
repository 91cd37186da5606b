#!/usr/bin/env python
"""CI smoke test for the query service.

Starts ``repro serve`` as a real subprocess over a small SBM-backed
dataset (the DBLP analog), fires a mixed batch of valid, invalid, and
oversized requests at it — with a chaos ``FaultPlan`` active inside the
service via ``REPRO_FAULT_SLOW`` wiring below — and asserts:

* the process never exits mid-conversation (zero crashes),
* every request line gets exactly one response line, ids echoed,
* valid queries succeed, invalid/oversized are rejected with typed codes,
* the drain at EOF is clean.

Run from the repo root: ``python scripts/service_smoke.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NUM_REQUESTS = 50


def build_requests() -> list[str]:
    """A deterministic mix: ~60% valid, the rest malformed in every way
    the protocol rejects."""
    lines = []
    for i in range(NUM_REQUESTS):
        bucket = i % 10
        if bucket < 5:  # valid queries with varying parameters
            lines.append(json.dumps({
                "id": i, "op": "query", "theta": 6.0 + (i % 4),
                "k": 1 + (i % 3), "quantile": 0.5 + 0.1 * (i % 3),
            }))
        elif bucket == 5:
            lines.append(json.dumps({"id": i, "op": "ping"}))
        elif bucket == 6:  # invalid: bad theta
            lines.append(json.dumps({"id": i, "op": "query",
                                     "theta": -1, "k": 2}))
        elif bucket == 7:  # invalid: not JSON
            lines.append(f"garbage line {i}")
        elif bucket == 8:  # oversized: blows the request byte cap
            lines.append(json.dumps({"id": i, "op": "query", "theta": 8.0,
                                     "k": 2, "pad": "x" * (70 * 1024)}))
        else:  # unknown op
            lines.append(json.dumps({"id": i, "op": "explode"}))
    return lines


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    db = tmp / "db.jsonl"
    idx = tmp / "idx.npz"
    crash_log = tmp / "crashes.jsonl"
    metrics = tmp / "metrics.json"

    def run_cli(*argv):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        if completed.returncode != 0:
            print(completed.stdout)
            print(completed.stderr, file=sys.stderr)
            raise SystemExit(f"setup command failed: {argv}")
        return completed

    # The DBLP analog rides on the SBM substrate — a small community-
    # structured dataset, built and indexed through the real CLI.
    run_cli("generate", "dblp", "--num-graphs", "40", "--seed", "7",
            "--output", str(db))
    run_cli("build-index", str(db), "--output", str(idx),
            "--vantage-points", "5")

    requests = build_requests()
    # sitecustomize injects the chaos plan into the service process:
    # one slow query via the service's own fault hook site.
    (tmp / "sitecustomize.py").write_text(
        "from repro.resilience import faults\n"
        "from repro.resilience.faults import FaultPlan\n"
        "faults.install(FaultPlan(slow_sites={'service.query': 0.3},"
        " slow_limit=1))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", str(db),
         "--index", str(idx), "--concurrency", "2", "--max-queue", "8",
         "--deadline-ms", "60000", "--crash-log", str(crash_log),
         "--metrics", str(metrics)],
        cwd=ROOT, input="\n".join(requests) + "\n",
        capture_output=True, text=True, timeout=600,
        env={"PYTHONPATH": f"{tmp}:{ROOT / 'src'}", "PATH": "/usr/bin:/bin"},
    )

    failures = []
    if completed.returncode != 0:
        failures.append(f"service exited {completed.returncode} "
                        f"(stderr: {completed.stderr[-2000:]})")

    responses = [json.loads(line) for line in completed.stdout.splitlines()
                 if line.strip()]
    # Shed requests answer too (typed overloaded), so: one response per
    # request, in request order for the ones that carried an id.
    if len(responses) != len(requests):
        failures.append(
            f"{len(responses)} responses for {len(requests)} requests")

    ok = sum(1 for r in responses if r.get("ok"))
    codes = {}
    for response in responses:
        if not response.get("ok"):
            code = response["error"]["code"]
            codes[code] = codes.get(code, 0) + 1
    print(f"responses: {len(responses)}  ok: {ok}  rejections: {codes}")

    if not ok:
        failures.append("no successful responses at all")
    if codes.get("invalid_request", 0) < NUM_REQUESTS * 3 // 10:
        failures.append(f"expected the malformed 40% to be rejected "
                        f"as invalid_request, got {codes}")
    unexpected = set(codes) - {"invalid_request", "overloaded"}
    if unexpected:
        failures.append(f"unexpected error codes: {unexpected}")
    if "drained" not in completed.stderr or "'clean': True" not in completed.stderr:
        failures.append(f"no clean drain in stderr: {completed.stderr[-500:]}")
    if crash_log.exists() and crash_log.read_text().strip():
        failures.append(f"crash journal not empty: {crash_log.read_text()}")
    if not metrics.exists():
        failures.append("metrics document was not flushed on drain")
    else:
        counters = json.loads(metrics.read_text())["metrics"]["counters"]
        # The pump offers all 50 lines at once, so admissions saturate at
        # max_queue + concurrency and the rest shed — that's the design.
        admitted = counters.get("service.admitted", 0)
        shed = counters.get("service.shed", 0)
        if admitted < 10:
            failures.append(f"fewer admissions than capacity: {counters}")
        if admitted + shed + codes.get("invalid_request", 0) != NUM_REQUESTS:
            failures.append(
                f"accounting leak: admitted={admitted} shed={shed} "
                f"invalid={codes.get('invalid_request', 0)} "
                f"!= {NUM_REQUESTS}")

    if failures:
        for failure in failures:
            print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("service smoke: OK (zero process exits, clean drain)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
