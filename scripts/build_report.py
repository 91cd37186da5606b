#!/usr/bin/env python3
"""Assemble results/REPORT.md from the per-experiment artifacts.

After ``repro experiment --all`` (or ``pytest benchmarks/bench_paper.py
--benchmark-only``), this script stitches every table/chart in
``results/`` into one reviewable document, in the order and under the
headings of the experiment registry (``repro.bench.EXPERIMENTS``).

    PYTHONPATH=src python scripts/build_report.py
"""

from __future__ import annotations

import datetime
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"
sys.path.insert(0, str(ROOT / "src"))

from repro.bench import EXPERIMENTS  # noqa: E402


def main() -> int:
    artifacts = sorted(RESULTS.glob("*.txt")) if RESULTS.is_dir() else []
    if not artifacts:
        print("results/ is missing or empty — run the experiments first",
              file=sys.stderr)
        return 1
    texts = {path: path.read_text().rstrip() for path in artifacts}
    scales = sorted(set(re.findall(r"\[scale: (\w+)\]", "".join(texts.values()))))
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT,
        capture_output=True, text=True,
    ).stdout.strip() or "unknown"

    lines = [
        "# Reproduction report",
        "",
        f"Generated {datetime.datetime.now():%Y-%m-%d %H:%M} on "
        f"Python {platform.python_version()} ({platform.machine()}), "
        f"commit {commit}, REPRO_BENCH_SCALE={'/'.join(scales) or 'unrecorded'}.",
        "",
        "Per-experiment tables and ASCII charts as produced by the experiment",
        "registry; see EXPERIMENTS.md for the paper-vs-measured comparison.",
        "",
    ]
    heading = None
    for entry in EXPERIMENTS:
        for path in artifacts:
            if path.name.startswith(entry.name) and path in texts:
                if entry.heading != heading:
                    heading = entry.heading
                    lines += [f"## {heading}", ""]
                lines += ["```", texts.pop(path), "```", ""]
    if texts:
        lines += ["## Other artifacts", ""]
        for text in texts.values():
            lines += ["```", text, "```", ""]

    output = RESULTS / "REPORT.md"
    output.write_text("\n".join(lines) + "\n")
    print(f"wrote {output} from {len(artifacts)} artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
