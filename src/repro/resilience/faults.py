"""Deterministic fault injection for resilience tests and benchmarks.

A :class:`FaultPlan` describes which failures to inject; code under test
installs it (usually via the :func:`injected` context manager) and the
library's hook points — replica worker op entry, exact-GED calls,
checksummed writes, compaction stages, durability fsync/rename points —
consult the active plan.
With no plan installed every hook is a cheap ``None``-check, so production
paths pay nothing.

Cross-process determinism: replica workers are forked, so they
inherit the plan installed in the parent *at fork time*.  One-shot worker
kills and wedges are coordinated through a token *file*: the first worker
op to atomically ``unlink`` it wins; every other process sees the token
gone and proceeds.  That makes "exactly one worker dies, exactly once"
reproducible regardless of scheduling.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class SimulatedCrash(RuntimeError):
    """Raised (in-process) by :func:`maybe_abort_stage` and
    :func:`maybe_kill_at` to simulate a kill at a named stage or site."""


@dataclass
class FaultPlan:
    """What to inject.  All fields default to "inject nothing".

    slow_sites:
        ``{site: seconds}`` sleeps injected at named hook sites (e.g.
        ``"ged.exact"``), at most ``slow_limit`` times per process.
    slow_limit:
        Cap on injected sleeps per process (``None`` = unlimited).
    torn_write:
        Truncate the next checksummed write mid-payload, simulating a
        torn/partial write that the checksum footer must catch.
    abort_after_stage:
        Raise :class:`SimulatedCrash` when this stage is reached (the
        compaction sites ``"delta.compact.shard"`` and
        ``"delta.compact.commit"``) — the "kill -9 between stages"
        scenario.
    replica_kill_token:
        Path to an existing file; the first *replica worker* to
        unlink it at op entry dies — a hard one-shot mid-query kill.
    replica_kill_every:
        A replica worker dies once it has served this many ops —
        sustained churn: every restarted worker dies again after the
        same count, so restarts and query re-runs keep happening for
        the life of the plan.
    replica_kill_replicas:
        Restrict both replica-kill modes to these replica indexes
        (``None`` = any).  Chaos runs that must keep one replica live
        pin kills to index 0 while index 1 survives.
    replica_wedge_token:
        Path to an existing file; the first replica worker to unlink it
        sleeps ``replica_wedge_seconds`` at op entry — the wedged-worker
        scenario (heartbeat/timeout detection, not crash detection).
    replica_wedge_seconds:
        How long a wedged replica sleeps (default 30 s — far past any
        sane op timeout, so the query must re-run, never wait).
    kill_site:
        Name of a :func:`maybe_kill_at` durability site (e.g.
        ``"durability.checkpoint.commit"``).  In-process plans raise
        :class:`SimulatedCrash` when the site is reached (after
        ``kill_skip`` earlier hits), exactly like ``abort_after_stage``;
        subprocess chaos drives the same sites via the
        ``REPRO_FAULT_KILL`` environment variable, which hard-kills with
        ``os._exit(137)`` — the honest ``kill -9`` signature.
    kill_skip:
        How many hits of ``kill_site`` to survive before dying, so a
        chaos sweep can kill at the Nth fsync/rename, not just the first.
    """

    slow_sites: dict = field(default_factory=dict)
    slow_limit: int | None = None
    torn_write: bool = False
    abort_after_stage: str | None = None
    replica_kill_token: str | os.PathLike | None = None
    replica_kill_every: int | None = None
    replica_kill_replicas: tuple | None = None
    replica_wedge_token: str | os.PathLike | None = None
    replica_wedge_seconds: float = 30.0
    kill_site: str | None = None
    kill_skip: int = 0


_PLAN: FaultPlan | None = None
_slow_injected = 0


def install(plan: FaultPlan) -> None:
    """Make ``plan`` the active plan (inherited by workers forked later)."""
    global _PLAN, _slow_injected
    _PLAN = plan
    _slow_injected = 0
    _kill_hits.clear()


def clear() -> None:
    global _PLAN
    _PLAN = None
    _kill_hits.clear()


def active() -> FaultPlan | None:
    return _PLAN


@contextmanager
def injected(plan: FaultPlan):
    """Scoped install/clear — the idiom tests should use."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


# ---------------------------------------------------------------------------
# Hook sites
# ---------------------------------------------------------------------------
def maybe_slow(site: str) -> None:
    """Named slow-path site (e.g. the exact-GED solver)."""
    plan = _PLAN
    if plan is None:
        return
    seconds = plan.slow_sites.get(site)
    if not seconds:
        return
    global _slow_injected
    if plan.slow_limit is not None and _slow_injected >= plan.slow_limit:
        return
    _slow_injected += 1
    time.sleep(seconds)


def maybe_tear(data: bytes) -> bytes | None:
    """Checksummed-write site: the truncated bytes to write instead, or
    ``None`` for no injection.  One-shot — the plan's flag is consumed."""
    plan = _PLAN
    if plan is None or not plan.torn_write:
        return None
    plan.torn_write = False
    return data[: max(1, len(data) // 2)]


def maybe_abort_stage(stage: str) -> None:
    """Stage site: crash once ``stage`` is reached (compaction)."""
    plan = _PLAN
    if plan is not None and plan.abort_after_stage == stage:
        raise SimulatedCrash(f"fault injection: killed after stage {stage!r}")


#: ``REPRO_FAULT_KILL`` parse cache: unset sentinel → (site, skip) | None.
_KILL_ENV_UNSET = object()
_kill_env = _KILL_ENV_UNSET
_kill_hits: dict = {}


def _kill_env_spec():
    """Parse ``REPRO_FAULT_KILL="site"`` or ``"site:skip"`` once."""
    global _kill_env
    if _kill_env is _KILL_ENV_UNSET:
        raw = os.environ.get("REPRO_FAULT_KILL")
        if not raw:
            _kill_env = None
        else:
            site, _, skip = raw.partition(":")
            _kill_env = (site, int(skip) if skip else 0)
    return _kill_env


def kill_site_hits(site: str) -> int:
    """How many times :func:`maybe_kill_at` matched ``site`` so far —
    lets a chaos driver learn how many fsync/rename points a stage has."""
    return _kill_hits.get(site, 0)


def maybe_kill_at(site: str) -> None:
    """Power-failure site: an fsync/rename point in a durability path.

    Two kill modes share the site names: an installed plan with
    ``kill_site`` raises :class:`SimulatedCrash` (in-process tests roll
    back and re-open), while the ``REPRO_FAULT_KILL`` environment
    variable — inherited by CLI subprocesses — dies hard with
    ``os._exit(137)``, which is as close to ``kill -9`` as a process can
    do to itself: no atexit, no flush, no finally.
    """
    plan = _PLAN
    spec = None
    if plan is not None and plan.kill_site is not None:
        spec = (plan.kill_site, plan.kill_skip, False)
    else:
        env = _kill_env_spec()
        if env is not None:
            spec = (env[0], env[1], True)
    if spec is None or spec[0] != site:
        return
    hits = _kill_hits.get(site, 0)
    _kill_hits[site] = hits + 1
    if hits < spec[1]:
        return
    if spec[2]:
        os._exit(137)
    raise SimulatedCrash(f"fault injection: killed at {site!r}")


def _replica_selected(plan: FaultPlan, replica_index: int) -> bool:
    return plan.replica_kill_replicas is None or (
        replica_index in plan.replica_kill_replicas
    )


def maybe_kill_replica(replica_index: int, ops_served: int) -> None:
    """Replica worker op entry.  Only ever called inside a forked worker
    process — ``os._exit`` here must never kill the coordinator."""
    plan = _PLAN
    if plan is None or not _replica_selected(plan, replica_index):
        return
    if (
        plan.replica_kill_every is not None
        and ops_served >= plan.replica_kill_every
    ):
        os._exit(3)
    if plan.replica_kill_token is not None:
        try:
            os.unlink(plan.replica_kill_token)  # atomic: exactly one winner
        except FileNotFoundError:
            return
        os._exit(3)


def maybe_wedge_replica(replica_index: int) -> None:
    """Replica worker op entry: one-shot wedge (long sleep, not death)."""
    plan = _PLAN
    if (
        plan is None
        or plan.replica_wedge_token is None
        or not _replica_selected(plan, replica_index)
    ):
        return
    try:
        os.unlink(plan.replica_wedge_token)
    except FileNotFoundError:
        return
    time.sleep(plan.replica_wedge_seconds)
