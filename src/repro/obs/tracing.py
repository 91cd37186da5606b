"""Span-based tracing with parent/child nesting.

A *span* is a named, attributed, timed region of execution::

    with obs.span("nbtree.build", n=len(graphs)) as sp:
        ...
        sp.set(nodes=tree.num_nodes)

Spans opened while another span is active on the same thread become its
children, so an index build traces as one ``index.build`` root with
``index.vantage_select`` / ``index.embed`` / ``index.tree_build`` children.
Each thread keeps its own open-span stack (``threading.local``); finished
root spans land in a lock-protected collector shared by all threads, which
is what the exporters read.

Finished spans are plain dicts — ``{"name", "seconds", "attrs",
"children"}`` — so they serialize as-is and can travel across process
boundaries: :meth:`Tracer.attach` grafts span records produced in another
process under the caller's currently open span (see
:func:`repro.obs.merge_state`).

Like the metrics registry, the default tracer is a no-op
(:class:`NullTracer`): ``span()`` hands back a shared do-nothing context
manager and the collector stays empty.
"""

from __future__ import annotations

import threading
import time


class _NullSpan:
    """Do-nothing span (shared singleton)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The off-switch tracer: no spans are ever recorded."""

    enabled = False
    __slots__ = ()

    def span(self, name, **attrs):
        return _NULL_SPAN

    def attach(self, spans, **attrs):
        pass

    def snapshot(self) -> list:
        return []

    def reset(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTracer()"


class Span:
    """One open span; finishes (and records itself) when the block exits."""

    __slots__ = ("_tracer", "name", "attrs", "children", "_started", "seconds")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.children: list[dict] = []
        self.seconds = 0.0

    def set(self, **attrs) -> None:
        """Add or overwrite attributes while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.seconds = time.perf_counter() - self._started
        if exc is not None:
            self.attrs.setdefault("error", repr(exc))
        self._tracer._finish(self)
        return False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "children": list(self.children),
        }


class Tracer:
    """Per-thread span stacks feeding one thread-safe collector."""

    enabled = True

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: list[dict] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        record = span.to_dict()
        if stack:
            stack[-1].children.append(record)
        else:
            with self._lock:
                self._roots.append(record)

    def attach(self, spans, **attrs) -> None:
        """Graft foreign span records (dicts) into the current position.

        Extra ``attrs`` are stamped onto each record — e.g. the worker pid
        when merging spans shipped back from another process.  With a
        span open on this thread the records become its children; otherwise
        they are collected as roots.
        """
        records = []
        for record in spans:
            if attrs:
                record = dict(record)
                record["attrs"] = {**record.get("attrs", {}), **attrs}
            records.append(record)
        if not records:
            return
        stack = self._stack()
        if stack:
            stack[-1].children.extend(records)
        else:
            with self._lock:
                self._roots.extend(records)

    def snapshot(self) -> list[dict]:
        """Finished root spans (nested children inside), oldest first."""
        with self._lock:
            return list(self._roots)

    def reset(self) -> None:
        with self._lock:
            self._roots.clear()

    def __repr__(self) -> str:
        with self._lock:
            return f"Tracer(roots={len(self._roots)})"
