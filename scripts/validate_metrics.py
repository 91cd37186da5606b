#!/usr/bin/env python3
"""Validate a repro.obs metrics document against scripts/metrics_schema.json.

Used by CI after ``repro query --metrics out.json`` on a tiny synthetic
database, and handy for checking any ``--metrics`` / benchmark-sidecar
artifact by hand::

    python scripts/validate_metrics.py out.json \
        --require query.count --require engine.evaluations

The validator is dependency-free: it implements exactly the JSON-Schema
subset the schema file uses (type, const, required, properties,
additionalProperties, items, ``$ref`` into ``$defs``) plus semantic
checks the schema language can't express (histogram bucket/count
arities, timer and span consistency, cascade per-stage counter
coherence).  ``--require NAME`` additionally
asserts a counter is present and positive — CI uses it to pin the
instrumented query path to the bench-script counts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA_PATH = Path(__file__).resolve().parent / "metrics_schema.json"

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}


class ValidationError(Exception):
    pass


def _fail(path: str, message: str):
    raise ValidationError(f"{path or '$'}: {message}")


def _check_type(value, expected: str, path: str) -> None:
    python_type = _TYPES[expected]
    ok = isinstance(value, python_type)
    if ok and expected in ("integer", "number") and isinstance(value, bool):
        ok = False  # bool is an int subclass; schemas mean numbers
    if expected == "integer" and isinstance(value, float):
        ok = value == int(value)  # JSON has one number type
    if not ok:
        _fail(path, f"expected {expected}, got {type(value).__name__}")


def validate_node(value, schema: dict, root: dict, path: str = "") -> None:
    if "$ref" in schema:
        ref = schema["$ref"]
        if not ref.startswith("#/$defs/"):
            _fail(path, f"unsupported $ref {ref!r}")
        validate_node(value, root["$defs"][ref.split("/")[-1]], root, path)
        return
    if "const" in schema and value != schema["const"]:
        _fail(path, f"expected {schema['const']!r}, got {value!r}")
    if "type" in schema:
        _check_type(value, schema["type"], path)
    if isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                _fail(path, f"missing required key {name!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for name, item in value.items():
            child_path = f"{path}.{name}" if path else name
            if name in properties:
                validate_node(item, properties[name], root, child_path)
            elif additional is False:
                _fail(path, f"unexpected key {name!r}")
            elif isinstance(additional, dict):
                validate_node(item, additional, root, child_path)
    if isinstance(value, list) and "items" in schema:
        for position, item in enumerate(value):
            validate_node(item, schema["items"], root, f"{path}[{position}]")


def _cascade_checks(document: dict, schema: dict) -> None:
    """Cascade counters are structured: ``cascade.<stage>.<metric>``.

    The stage must come from the schema's ``cascade_stages`` enum (the
    query filter's two bounds, ``assignment`` and ``vantage``) and the
    metric suffix from ``cascade_stage_metrics``; a stage that reports
    ``evals`` must also report ``prunes`` with ``prunes <= evals`` — a
    pruned pair is by definition one the stage evaluated.
    """
    stages = set(schema["$defs"]["cascade_stages"]["enum"])
    metrics = set(schema["$defs"]["cascade_stage_metrics"]["enum"])
    counters = document["metrics"]["counters"]
    for name in counters:
        if not name.startswith("cascade."):
            continue
        path = f"metrics.counters.{name}"
        parts = name.split(".")
        if len(parts) != 3:
            _fail(path, "cascade counters must be cascade.<stage>.<metric>")
        _, stage, metric = parts
        if stage not in stages:
            _fail(path, f"unknown cascade stage {stage!r} "
                        f"(schema allows: {', '.join(sorted(stages))})")
        if metric not in metrics:
            _fail(path, f"unknown cascade metric {metric!r} "
                        f"(schema allows: {', '.join(sorted(metrics))})")
    for stage in stages:
        evals = counters.get(f"cascade.{stage}.evals")
        if evals is None:
            continue
        prunes = counters.get(f"cascade.{stage}.prunes")
        if prunes is None:
            _fail(f"metrics.counters.cascade.{stage}.evals",
                  f"stage reports evals but no cascade.{stage}.prunes")
        if prunes > evals:
            _fail(f"metrics.counters.cascade.{stage}.prunes",
                  f"prunes ({prunes}) exceed evals ({evals})")
    for name in document["metrics"]["timers"]:
        if not name.startswith("cascade."):
            continue
        parts = name.split(".")
        if len(parts) != 3 or parts[1] not in stages or parts[2] != "seconds":
            _fail(f"metrics.timers.{name}",
                  "cascade timers must be cascade.<known-stage>.seconds")


def _semantic_checks(document: dict) -> None:
    """Consistency rules beyond the schema subset."""
    for name, entry in document["metrics"]["histograms"].items():
        path = f"metrics.histograms.{name}"
        if len(entry["counts"]) != len(entry["buckets"]) + 1:
            _fail(path, "counts must have one overflow slot beyond buckets")
        if sum(entry["counts"]) != entry["count"]:
            _fail(path, "bucket counts must sum to count")
        if list(entry["buckets"]) != sorted(entry["buckets"]):
            _fail(path, "bucket bounds must be sorted")
    for name, entry in document["metrics"]["timers"].items():
        path = f"metrics.timers.{name}"
        if entry["count"] < 1:
            _fail(path, "recorded timer must have count >= 1")
        if not entry["min"] <= entry["max"]:
            _fail(path, "min must be <= max")

    def walk(span, path):
        if span["seconds"] < 0:
            _fail(path, "span seconds must be non-negative")
        for position, child in enumerate(span["children"]):
            walk(child, f"{path}.children[{position}]")

    for position, span in enumerate(document["spans"]):
        walk(span, f"spans[{position}]")


def validate(document: dict, required_counters=()) -> list[str]:
    """All problems found (empty list == valid)."""
    schema = json.loads(SCHEMA_PATH.read_text())
    problems: list[str] = []
    try:
        validate_node(document, schema, schema)
        _semantic_checks(document)
        _cascade_checks(document, schema)
    except ValidationError as error:
        return [str(error)]
    counters = document["metrics"]["counters"]
    for name in required_counters:
        if counters.get(name, 0) <= 0:
            problems.append(f"required counter {name!r} missing or zero")
    return problems


def validate_index_stats(document: dict) -> list[str]:
    """Validate a normalized ``Index.stats()`` dict (JSON) against the
    ``index_stats`` definition — the one key schema NBIndex,
    ShardedIndex and MutableIndex all speak."""
    schema = json.loads(SCHEMA_PATH.read_text())
    try:
        validate_node(
            document, schema["$defs"]["index_stats"], schema
        )
    except ValidationError as error:
        return [str(error)]
    problems: list[str] = []
    shards = document.get("shards")
    if shards is not None and len(shards) != document["num_shards"]:
        problems.append(
            f"shards lists {len(shards)} entries but num_shards is "
            f"{document['num_shards']}"
        )
    delta = document.get("delta")
    if delta is not None:
        if delta["indexed_graphs"] + delta["memtable_size"] != document["num_graphs"]:
            problems.append(
                "delta.indexed_graphs + delta.memtable_size must equal "
                "num_graphs"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("document", help="metrics JSON file to validate")
    parser.add_argument(
        "--require", action="append", default=[], metavar="COUNTER",
        help="counter that must be present and positive (repeatable)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="the document is a normalized Index.stats() dict (from "
             "NBIndex/ShardedIndex/MutableIndex) rather than a metrics "
             "document",
    )
    args = parser.parse_args(argv)
    try:
        document = json.loads(Path(args.document).read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read {args.document}: {error}", file=sys.stderr)
        return 2
    if args.stats:
        problems = validate_index_stats(document)
        if args.require:
            problems.append("--require applies to metrics documents only")
        if problems:
            for problem in problems:
                print(f"INVALID {args.document}: {problem}", file=sys.stderr)
            return 1
        print(
            f"OK {args.document}: index stats — {document['num_graphs']} "
            f"graphs, {document['num_shards']} shard(s)"
            + (", mutable" if document.get("delta") else "")
        )
        return 0
    problems = validate(document, args.require)
    if problems:
        for problem in problems:
            print(f"INVALID {args.document}: {problem}", file=sys.stderr)
        return 1
    counters = len(document["metrics"]["counters"])
    print(f"OK {args.document}: schema {document['schema']}, "
          f"{counters} counters, {len(document['spans'])} root spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
