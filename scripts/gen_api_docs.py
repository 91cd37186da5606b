#!/usr/bin/env python3
"""Generate docs/api.md — a flat API reference from live docstrings.

Walks the installed ``repro`` package, and for every public module emits
its public classes (with public methods) and functions, each with its
signature and the first paragraph of its docstring.  Regenerate after API
changes:

    python scripts/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import repro

OUTPUT = Path(__file__).resolve().parents[1] / "docs" / "api.md"

#: Modules that are re-export shims or internal plumbing.
SKIP_MODULES = {"repro.cli"}


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n")[0].replace("\n", " ").strip()
    return paragraph


class _Named:
    """A default that prints as a name: a function's own repr carries its
    memory address, which would change the output on every run."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


def signature_of(obj) -> str:
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(...)"
    return str(signature.replace(parameters=[
        param.replace(default=_Named(param.default.__qualname__))
        if inspect.isroutine(param.default) else param
        for param in signature.parameters.values()
    ]))


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        yield importlib.import_module(info.name)


def public_members(module):
    classes, functions = [], []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-exports are documented at their home module
        if inspect.isclass(member):
            classes.append((name, member))
        elif inspect.isfunction(member):
            functions.append((name, member))
    return sorted(classes), sorted(functions)


def render_class(name, cls) -> list[str]:
    lines = [f"### class `{name}{signature_of(cls)}`", ""]
    summary = first_paragraph(cls)
    if summary:
        lines += [summary, ""]
    for method_name, method in sorted(vars(cls).items()):
        if method_name.startswith("_"):
            continue
        if isinstance(method, property):
            lines.append(
                f"- `.{method_name}` (property) — "
                f"{first_paragraph(method.fget) or ''}".rstrip(" —")
            )
        elif inspect.isfunction(method):
            lines.append(
                f"- `.{method_name}{signature_of(method)}` — "
                f"{first_paragraph(method) or ''}".rstrip(" —")
            )
        elif isinstance(method, classmethod):
            inner = method.__func__
            lines.append(
                f"- `.{method_name}{signature_of(inner)}` (classmethod) — "
                f"{first_paragraph(inner) or ''}".rstrip(" —")
            )
    lines.append("")
    return lines


#: Hand-written preamble describing the unified top-level facade; the
#: generated per-module reference follows it.
PREAMBLE = """\
## The unified facade

Everything a typical script needs is importable from `repro` directly:

```python
import repro

database = repro.open_database("dud.jsonl")        # or repro.datasets
index = repro.open_index("dud-index.npz", database)  # or NBIndex.build(...)
q = repro.quartile_relevance(database)

with repro.observe() as run:                       # optional observability
    result = index.query(q, theta=10.0, k=10)
    run.report()                                   # counters + span tree
    run.write("metrics.json")                      # repro.obs/v1 document

print(result.answer, index.stats()["distance_calls"])
```

Conventions across the public API:

- **Keyword-only hyperparameters.**  Construction entry points
  (`NBIndex.build`, `TopKRepresentativeQuery`, `baseline_greedy`,
  `lazy_greedy`, `MTree`, `CTree`) take tuning arguments keyword-only:
  `seed=` for determinism, plus per-API knobs.
- **One distance argument.**  Everything that measures — `NBIndex.build`,
  `VantageEmbedding`, `choose_thresholds`, `MTree`, `CTree`,
  `pairwise_matrix`, the samplers — takes a metric *or* a
  `repro.engine.DistanceEngine` as `distance` and evaluates through an
  engine either way (`DistanceEngine.of`); pass one engine to several of
  them to share its pair cache.
- **`stats()` everywhere.**  Every component that does measurable work —
  the distance engine, `CountingDistance`, `NBIndex`, query
  results' `QueryStats`, the M-/C-tree baselines — implements the
  `repro.Statable` protocol: `stats()` returning a plain JSON-safe dict.
  `repro.obs.collect_stats(...)` nests several into one document.
- **Observability is off by default.**  `repro.observe()`, the
  `REPRO_OBS=1` environment variable, or the CLI's `--metrics/--trace`
  flags turn it on; see `docs/observability.md`.
"""


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Auto-generated by `scripts/gen_api_docs.py`; regenerate after API "
        "changes.  One section per module, public items only.",
        "",
        PREAMBLE,
    ]
    for module in iter_modules():
        classes, functions = public_members(module)
        if not classes and not functions:
            continue
        lines += [f"## `{module.__name__}`", ""]
        summary = first_paragraph(module)
        if summary:
            lines += [summary, ""]
        for name, cls in classes:
            lines += render_class(name, cls)
        for name, fn in functions:
            lines += [
                f"### `{name}{signature_of(fn)}`",
                "",
                first_paragraph(fn) or "(undocumented)",
                "",
            ]
    OUTPUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {OUTPUT} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
