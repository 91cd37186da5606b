#!/usr/bin/env python3
"""A/A and A/B comparator for ``run.py --out`` documents.

    python benchmarks/e2e/compare.py A.json B.json
    python benchmarks/e2e/compare.py runs-parent/ runs-change/

Each side is one result document or a directory of them (repeats of the
same commit).  For every (workload, end-to-end metric) the bound written
in ``BENCHMARK.json`` is applied to the two medians and one row is
printed: both values, the ratio B/A *and its base*, and a verdict:

``ok``          B is not worse than A by more than the bound
``regressed``   B is worse than A by more than the bound
``unresolved``  the spread across A's repeats (interquartile distance over
                the median) is wider than the bound, so the comparison
                cannot tell — unless every B run beats every A run

The timings (``query_p50_ms``, ``queries_per_s``, …) and the metrics only
one workload has (``refine_p50_ms``, ``mutation_p50_ms``, …) are measured
in the same untraced run but not bounded in ``BENCHMARK.json`` — across
ten seeds on the sandbox no timing holds a spread under 0.25, and the
driver contract wants every end-to-end metric on every workload — so their
bounds, meant for runs of one seed, live in ``WORKLOAD_BOUNDS``.
The exit status is non-zero on any regression or a higher
``failed_ops_frac``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: name -> (better, bound, unit) of the untraced metrics ``BENCHMARK.json``
#: does not bound: the timings, and what only one workload has.
WORKLOAD_BOUNDS = {
    "query_p50_ms": ("lower", 0.10, "ms"),
    "query_p75_ms": ("lower", 0.15, "ms"),
    "query_cold_p50_ms": ("lower", 0.10, "ms"),
    "queries_per_s": ("higher", 0.10, "1/s"),
    "recovery_s": ("lower", 0.10, "s"),
    "refine_p50_ms": ("lower", 0.10, "ms"),
    # fsync-bound: the device's flush latency moves ±40 % between runs
    "mutation_p50_ms": ("lower", 0.50, "ms"),
    "compact_s": ("lower", 0.10, "s"),
    "checkpoint_s": ("lower", 0.25, "s"),
    "first_answer_s": ("lower", 0.10, "s"),
    "journal_bytes_per_mutation": ("lower", 0.02, "B"),
}


def load_side(path: str) -> dict[str, list[dict]]:
    """``{workload: [document, ...]}`` from a file or a directory."""
    source = Path(path)
    files = sorted(source.glob("*.json")) if source.is_dir() else [source]
    side: dict[str, list[dict]] = {}
    for file in files:
        document = json.loads(file.read_text())
        per_workload = document.get("workloads") or {
            document["workload"]: document
        }
        for workload, doc in per_workload.items():
            if not doc.get("traced"):
                side.setdefault(workload, []).append(doc)
    return side


def metric_values(documents: list[dict], name: str) -> list[float]:
    values = []
    for doc in documents:
        if name in doc["metrics"]:
            values.append(float(doc["metrics"][name]["value"]))
        elif name in doc.get("workload_metrics", {}):
            values.append(float(doc["workload_metrics"][name]))
    return values


def spread(values: list[float]) -> float | None:
    """Interquartile distance over the median; needs two repeats."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(verdict, ratio B/A, spread of A)."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    ratio = median_b / median_a if median_a else float("inf")
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    a_spread = spread(a)
    if a_spread is not None and a_spread > bound:
        if better == "lower":
            clear_win = max(b) < min(a)
        else:
            clear_win = min(b) > max(a)
        return ("ok" if clear_win else "unresolved"), ratio, a_spread
    return ("regressed" if worse_by > bound else "ok"), ratio, a_spread


def compare(side_a: dict, side_b: dict, benchmark: dict) -> int:
    declared = {
        m["name"]: (m["better"], m["bound"], m["unit"])
        for m in benchmark["end_to_end"]
    }
    status = 0
    header = (
        f"{'workload':<12} {'metric':<27} {'A':>12} {'B':>12} "
        f"{'B/A':>7}  {'base':<14} {'spread(A)':>9}  verdict"
    )
    print(header)
    for workload in (w["name"] for w in benchmark["workloads"]):
        docs_a, docs_b = side_a.get(workload), side_b.get(workload)
        if not docs_a or not docs_b:
            print(f"{workload:<12} (missing on one side)")
            status = 1
            continue
        specific = {
            name: spec for name, spec in WORKLOAD_BOUNDS.items()
            if metric_values(docs_a, name)
        }
        for name, (better, bound, unit) in {**declared, **specific}.items():
            a, b = metric_values(docs_a, name), metric_values(docs_b, name)
            if not a or not b:
                print(f"{workload:<12} {name:<27} (missing on one side)")
                status = 1
                continue
            result, ratio, a_spread = verdict(a, b, better, bound)
            if result == "regressed":
                status = 1
            shown = "n/a" if a_spread is None else f"{a_spread:.3f}"
            print(
                f"{workload:<12} {name:<27} {statistics.median(a):>12.6g} "
                f"{statistics.median(b):>12.6g} {ratio:>7.3f}  "
                f"{f'A ({unit})':<14} {shown:>9}  {result}"
                f"{' =' if a == b else ''}"
            )
        failed_a = statistics.median(d["failed_ops_frac"] for d in docs_a)
        failed_b = statistics.median(d["failed_ops_frac"] for d in docs_b)
        worse = failed_b > failed_a
        if worse or any(not d["correct"] for d in docs_b):
            status = 1
        print(
            f"{workload:<12} {'failed_ops_frac':<27} {failed_a:>12.6g} "
            f"{failed_b:>12.6g} {'':>7}  {'attempted ops':<14} {'':>9}  "
            f"{'regressed' if worse else 'ok'}"
        )
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load_side(argv[0]), load_side(argv[1]), benchmark)


if __name__ == "__main__":
    sys.exit(main())
