#!/usr/bin/env python3
"""End-to-end benchmark driver.

    python benchmarks/e2e/run.py                       # all four, n = 5 000
    python benchmarks/e2e/run.py --workload dud_inproc --seed 12
    python benchmarks/e2e/run.py --trace               # + per-layer rerun
    python benchmarks/e2e/run.py --smoke               # n = 300, < 30 s
    python benchmarks/e2e/run.py --out result.json

One workload runs in this interpreter; several run each in a fresh child
interpreter (so ``peak_rss_mb`` and caches do not leak between them).
Every metric is printed as ``workload metric value unit``; the last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}`` — the end-to-end metrics of ``BENCHMARK.json`` for an untraced
run, the per-layer ones for a traced run.  The program under test is
measured from outside: public functions are timed, public counters read.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: One BLAS/OpenMP thread: the engines are serial, and a threaded BLAS on
#: a 2-core box is the largest source of run-to-run noise.
_THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", default=None, metavar="NAME",
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="warm measurement window per workload "
             "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
        help="install span recorders and report per-layer metrics; with "
             "several workloads each is run untraced first, then traced",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="n = 300, one pass, timing-free checks")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the full result document here")
    parser.add_argument("--regen-golden", action="store_true",
                        help="recompute and rewrite the golden answers")
    return parser.parse_args(argv)


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def provenance(args, scale: str) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "seed": args.seed,
        "scale": scale,
        "engine_workers": "serial (REPRO_ENGINE_WORKERS unset)",
        "blas_threads": 1,
    }


# ---------------------------------------------------------------------------
# One workload, this interpreter
# ---------------------------------------------------------------------------
def run_one(args, benchmark: dict) -> int:
    workload = args.workload[0]
    scale = "smoke" if args.smoke else "full"
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(benchmark["run_seconds"])
    document = {"provenance": provenance(args, scale)}

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:  # before any output or file is written
        print(f"cannot import the program under test from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2

    import harness
    import layers
    import trace as e2e_trace
    import workloads

    if workload not in workloads.WORKLOADS:
        print(f"unknown workload {workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    run = harness.Run(
        workload, workloads.SCALES[scale][workload], args.seed, seconds,
        scale, args.trace, args.regen_golden, workdir, PROCESS_STARTED,
    )
    try:
        parts = workloads.WORKLOADS[workload](run)
        e2e_names = {m["name"]: m for m in benchmark["end_to_end"]}
        layer_names = {m["name"]: m for m in benchmark["per_layer"]}
        metrics = dict(parts["metrics"])
        missing = set(e2e_names) - set(metrics)
        if missing:
            raise KeyError(f"end-to-end metrics not produced: {missing}")
        reported = {
            name: {"value": metrics[name], "unit": e2e_names[name]["unit"]}
            for name in e2e_names
        }
        extra = parts.get("extra", {})
        if args.trace:
            documents = []
            if run.recorder is not None:
                local = run.recorder.snapshot()
                local["cascade"] = e2e_trace.cascade_totals(run.recorder)
                local["role"] = "driver"
                documents.append(local)
            trace_dir = parts.get("server_trace_dir")
            if trace_dir is not None:
                for path in sorted(Path(trace_dir).glob("trace-pid*.json")):
                    documents.append(json.loads(path.read_text()))
            merged = e2e_trace.merge(documents)
            layer_values = layers.layer_metrics(
                run, parts, merged, e2e_trace.per_span_cost_s(), layer_names
            )
            trace_path = OUT_DIR / f"trace-{workload}.json"
            trace_path.write_text(json.dumps(merged))
            document["trace_file"] = str(trace_path.relative_to(ROOT))
            document["end_to_end_traced"] = metrics
            reported = {
                name: {"value": value, "unit": layer_names[name]["unit"]}
                for name, value in layer_values.items()
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = run.failed / max(run.attempted, 1)
    for name, entry in reported.items():
        print(f"{workload} {name} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        for name, value in extra.items():
            print(f"{workload} {name} {value:.6g} (workload-specific)")
    print(f"{workload} failed_ops_frac {failed_frac:.6g} ratio "
          f"({run.failed}/{run.attempted})")
    for failure in run.failures:
        print(f"{workload} FAILED {failure}", file=sys.stderr)

    document.update({
        "workload": workload,
        "traced": bool(args.trace),
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ops_frac": failed_frac,
        "failures": run.failures,
        "metrics": reported,
        "workload_metrics": extra,
        "seconds": seconds,
        "info": {k: v for k, v in run.info.items() if k != "mix"},
        "sample_counts": {k: len(v) for k, v in run.samples.items()},
        "ops_wall_s": {k: sum(v) for k, v in run.samples.items()},
        "samples_ms": {
            k: [round(x * 1e3, 4) for x in v] for k, v in run.samples.items()
            if k.startswith(("query.", "refine"))
        },
        "mix": run.info.get("mix"),
        "total_s": time.perf_counter() - PROCESS_STARTED,
    })
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1, default=str))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": reported,
    }))
    return 0


# ---------------------------------------------------------------------------
# Several workloads: one fresh child interpreter each
# ---------------------------------------------------------------------------
def run_children(args, benchmark: dict, names) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    status = 0
    for name in names:
        for traced in ((0, 1) if args.trace else (0,)):
            with tempfile.NamedTemporaryFile(
                dir=OUT_DIR, suffix=".json", delete=False
            ) as handle:
                child_out = Path(handle.name)
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--trace", str(traced), "--out", str(child_out),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            if args.regen_golden and not traced:
                command.append("--regen-golden")
            try:
                completed = subprocess.run(
                    command, stdout=subprocess.PIPE, text=True, timeout=900
                )
                lines = completed.stdout.splitlines()
                print("\n".join(lines[:-1]))
                if completed.returncode != 0 or not lines:
                    print(f"{name}: child exited {completed.returncode}",
                          file=sys.stderr)
                    status = 1
                    continue
                document = json.loads(child_out.read_text())
            finally:
                child_out.unlink(missing_ok=True)
            if not document["correct"]:
                status = 1
            if not traced:
                results[name] = document
            else:
                untraced = results.get(name)
                if untraced is not None:
                    # Both runs are known here: the measured overhead (same
                    # operations, traced wall over untraced wall) replaces
                    # the calibrated per-span estimate.
                    kinds = set(untraced["ops_wall_s"]) & set(
                        document["ops_wall_s"]
                    )
                    base = sum(untraced["ops_wall_s"][k] for k in kinds)
                    traced_wall = sum(document["ops_wall_s"][k] for k in kinds)
                    document["metrics"]["obs.trace_overhead_frac"]["value"] = (
                        (traced_wall - base) / base
                    )
                    untraced["per_layer"] = document["metrics"]
                    untraced["trace_file"] = document.get("trace_file")
                    untraced["traced_run"] = {
                        k: document[k] for k in (
                            "correct", "attempted", "failed", "total_s",
                        )
                    }
    combined = {
        "benchmark": "e2e",
        "provenance": next(iter(results.values()))["provenance"]
        if results else None,
        "workloads": results,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1, default=str))
    print(json.dumps({
        "correct": status == 0 and bool(results),
        "workloads": {
            name: {
                "correct": doc["correct"], "attempted": doc["attempted"],
                "failed": doc["failed"],
            }
            for name, doc in results.items()
        },
    }))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in _THREAD_ENV:
        os.environ[name] = "1"
    os.environ.pop("REPRO_ENGINE_WORKERS", None)
    benchmark = load_benchmark()
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    if len(names) == 1:
        args.workload = names
        return run_one(args, benchmark)
    return run_children(args, benchmark, names)


if __name__ == "__main__":
    sys.exit(main())
