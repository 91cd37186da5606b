"""Plain-text table rendering for experiment results.

The paper reports tables and figure series; the harness renders both as
aligned monospace tables, printed to stdout and persisted under
``results/`` so EXPERIMENTS.md can reference stable artifacts.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(result: ExperimentResult) -> str:
    """Render an ExperimentResult as an aligned text table."""
    columns = result.columns
    header = [str(c) for c in columns]
    body = [[_format_cell(row.get(c)) for c in columns] for row in result.rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(columns))
    ]
    lines = [f"== {result.name} =="]
    if result.notes:
        lines.append(result.notes)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def chart_for(result: ExperimentResult) -> str | None:
    """The ASCII chart the registry declares for this experiment, if any."""
    from repro.bench.ascii_plot import ascii_chart
    from repro.bench.registry import EXPERIMENTS

    for entry in EXPERIMENTS:
        if entry.chart and result.name.startswith(entry.name):
            x, ys, log_y = entry.chart
            usable = [y for y in ys if any(r.get(y) is not None
                                           for r in result.rows)]
            try:  # no usable series or no points: no chart
                return ascii_chart(result, x, usable, log_y=log_y,
                                   title=f"[{result.name}]")
            except ValueError:
                return None
    return None


def print_and_save(result: ExperimentResult) -> str:
    """Format (table + optional chart), print, persist under results/.

    When observability is on (``REPRO_OBS=1`` or an active
    ``repro.observe()``), a ``results/<name>.metrics.json`` sidecar with
    the run's counters/timers/spans is written next to the table.
    """
    from repro import obs
    from repro.bench.harness import write_result

    formatted = format_table(result)
    chart = chart_for(result)
    if chart:
        formatted = formatted + "\n" + chart
    print(formatted)
    path = write_result(result, formatted)
    if obs.enabled():
        sidecar = path.with_name(f"{result.name}.metrics.json")
        obs.write_metrics(sidecar)
        print(f"[obs] wrote {sidecar}")
    return formatted
