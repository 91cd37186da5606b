"""Coarse build work dealt to forked children: :func:`fan_out`.

``fan_out(fn, items, pairs)`` is ``[fn(item) for item in items]`` for items
worth about ``pairs`` evaluations, dealt round-robin to one process per
usable CPU — never more than there are shares of :data:`MIN_SHARE_PAIRS` —
with the parent running the first share.  A child starts a fresh
:mod:`repro.obs` registry and pipes back one pickle of results and
:func:`repro.obs.export_state`; its exception is re-raised in the parent,
type intact — a :class:`~repro.resilience.BudgetExceeded` included — and
every child is reaped.  Only builds fan out, and a build runs with no
deadline (:func:`repro.resilience.deadline.unbudgeted`).  It runs inline with
no ``os.fork``, another thread alive (a fork could copy a lock that thread
holds) or a :class:`~repro.resilience.faults.FaultPlan` installed (whose
one-shot and counted faults belong to one process).
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

#: Fewest evaluations a share must hold to repay its fork: twice the
#: break-even of a dud bundle build on a 2-core x86 box, ~1 000 star pairs
#: per share of the vantage frame (EXPERIMENTS.md, "The fan-out's verdict").
MIN_SHARE_PAIRS = 2_000


def workers(count: int, pairs: int) -> int:
    """How many processes ``count`` items worth ``pairs`` evaluations are
    dealt to (1 = inline)."""
    from repro.resilience import faults

    forkable = hasattr(os, "fork") and threading.active_count() == 1
    if not forkable or faults.active() is not None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS)
        cpus = os.cpu_count() or 1
    return max(1, min(count, cpus, pairs // MIN_SHARE_PAIRS))


def fan_out(fn, items, pairs: int) -> list:
    """``[fn(item) for item in items]``, on forked children when the
    process has CPUs to spare and ``pairs`` repays the forks."""
    items = list(items)
    processes = workers(len(items), pairs)
    if processes == 1:
        return [fn(item) for item in items]
    from repro import obs

    results: list = [None] * len(items)
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for share in range(1, processes):
            children.append(_fork(fn, items[share::processes]))
        results[0::processes] = [fn(item) for item in items[0::processes]]
        payloads = []
        for _, read_end in children:
            with os.fdopen(read_end, "rb", closefd=False) as stream:
                payloads.append(stream.read())
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_end in children:
            os.close(read_end)
            os.waitpid(pid, 0)
    for share, payload in enumerate(payloads, start=1):
        if not payload:
            raise ChildProcessError("a fan-out child died without answering")
        ok, values, state = pickle.loads(payload)
        if not ok:
            raise values
        results[share::processes] = values
        obs.merge_state(state)
    return results


def _fork(fn, share: list) -> tuple[int, int]:
    """Start one child on ``share``; returns ``(pid, read end)``."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_end)
        return pid, read_end
    try:  # the child: never returns, never runs the parent's cleanup
        os.close(read_end)
        with os.fdopen(write_end, "wb") as stream:
            stream.write(_run_share(fn, share))
    finally:
        os._exit(0)


def _run_share(fn, share: list) -> bytes:
    from repro import obs

    if obs.enabled():
        obs.enable(fresh=True)
    try:
        outcome = (True, [fn(item) for item in share])
    except BaseException as exc:
        outcome = (False, exc)
    try:
        return pickle.dumps(
            (*outcome, obs.export_state()), pickle.HIGHEST_PROTOCOL
        )
    except Exception as exc:  # an unpicklable result or exception
        return pickle.dumps((False, RuntimeError(repr(exc)), {}))
