"""Worker lifecycle: spawn R replicas per shard, watch them, restart them.

The :class:`Supervisor` owns every shard-worker process and the one
``socketpair`` connecting each to the coordinator.  Workers are forked
(the database object rides along for free; no serialization), greeted
with a ``hello`` handshake that doubles as a readiness gate, and then
watched by a monitor thread:

* **crash detection** — a worker whose process has exited is marked dead
  and scheduled for restart after :func:`restart_delay` — capped,
  jittered exponential backoff (attempts reset once a restart survives
  its handshake, so steady chaos churn restarts fast while a truly
  broken worker backs off to the cap).
* **wedge detection** — a worker that has been busy on one op for longer
  than ``wedge_timeout_s`` is killed outright (its blocked caller gets a
  clean EOF and fails over); an *idle* worker that has not answered
  anything recently is probed with a ``ping`` heartbeat, and a failed
  probe is treated as a wedge.

Every successful router op refreshes the worker's ``last_ok`` stamp, so
heartbeat pings only fire on genuinely quiet workers — busy clusters pay
no probe traffic.

A timed-out connection is *poisoned*, never reused: a late response from
a wedged worker would desynchronize the request/response stream, so the
worker is killed and respawned with a fresh pair instead.  Fresh workers
hold no query sessions; the router's session-restore protocol
(:mod:`repro.replica.remote`) rebuilds them lazily on first contact.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import socket
import threading
import time
from pathlib import Path

from repro import obs
from repro.replica import wire
from repro.replica.errors import (
    ReplicaDead,
    ReplicaError,
    ReplicaProtocolError,
    ReplicaTimeout,
)
from repro.replica.worker import worker_main
from repro.utils.validation import require

#: Restart backoff for a worker that keeps failing to come up: the
#: exponent keeps a broken worker from being hammered, the cap bounds the
#: stall, and the upward jitter de-synchronizes restarts sharing a machine.
RESTART_BASE_S = 0.05
RESTART_CAP_S = 2.0
RESTART_JITTER = 0.25


def restart_delay(attempt: int) -> float:
    """Seconds to wait before restart number ``attempt`` (0-based)."""
    base = min(RESTART_CAP_S, RESTART_BASE_S * 2.0 ** attempt)
    return base * (1.0 + RESTART_JITTER * random.random())


class WorkerHandle:
    """One live (or dead) replica process and its coordinator-side pipe."""

    def __init__(self, shard_id: int, replica_index: int):
        self.shard_id = shard_id
        self.replica_index = replica_index
        self.proc = None
        self.sock: socket.socket | None = None
        self.reader = None
        #: Serializes ops on the pair — one in-flight request per worker.
        self.lock = threading.Lock()
        self.alive = False
        self.last_ok = time.monotonic()
        self.busy_since: float | None = None
        #: Bumps on every restart; a new process holds no sessions.
        self.generation = 0
        #: Session ids this *process generation* has opened (router-side
        #: record; consulted for proactive restore after a restart).
        self.sessions: set[str] = set()
        self.restart_attempts = 0
        self.next_restart_at = 0.0
        self.tree_nodes = 0
        self.num_graphs = 0

    # ------------------------------------------------------------------
    def call(self, payload: dict, timeout: float,
             *, max_frame: int = wire.MAX_FRAME_BYTES) -> dict:
        """One request/response round trip under the handle's lock.

        Raises :class:`ReplicaDead` / :class:`ReplicaTimeout` /
        :class:`ReplicaProtocolError`; the caller decides whether that
        means failover.  On any raise the connection is left poisoned
        (``alive=False``) — the supervisor will respawn it.
        """
        with self.lock:
            if not self.alive or self.sock is None:
                raise ReplicaDead(
                    f"replica {self.shard_id}/{self.replica_index} is down"
                )
            self.busy_since = time.monotonic()
            try:
                self.sock.settimeout(timeout)
                self.sock.sendall(wire.encode_frame(payload))
                response = wire.read_frame(self.reader, max_bytes=max_frame)
            except (socket.timeout, TimeoutError) as error:
                self.alive = False
                raise ReplicaTimeout(
                    f"replica {self.shard_id}/{self.replica_index} did not "
                    f"answer {payload.get('op')!r} within {timeout:g}s"
                ) from error
            except ReplicaDead:
                self.alive = False
                raise
            except OSError as error:
                self.alive = False
                raise ReplicaDead(
                    f"replica {self.shard_id}/{self.replica_index} "
                    f"connection failed: {error}"
                ) from error
            except ReplicaProtocolError:
                self.alive = False
                obs.counter("replica.protocol_errors")
                raise
            finally:
                self.busy_since = None
            if response is None:
                self.alive = False
                raise ReplicaDead(
                    f"replica {self.shard_id}/{self.replica_index} closed "
                    f"the connection (process exit)"
                )
            self.last_ok = time.monotonic()
            return response

    # ------------------------------------------------------------------
    def mark_dead(self) -> None:
        """Poison the handle (idempotent; safe from any thread)."""
        self.alive = False

    def close(self) -> None:
        self.alive = False
        if self.reader is not None:
            try:
                self.reader.close()
            except OSError:
                pass
            self.reader = None
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def kill(self) -> None:
        self.close()
        if self.proc is not None and self.proc.is_alive():
            self.proc.kill()

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return (
            f"<WorkerHandle shard={self.shard_id} "
            f"replica={self.replica_index} {state} "
            f"gen={self.generation}>"
        )


class Supervisor:
    """Spawn, monitor and restart the S × R shard-worker fleet."""

    def __init__(
        self,
        database,
        distance,
        manifest_path: str | Path,
        num_shards: int,
        *,
        frame,
        replicas: int = 2,
        heartbeat_s: float = 0.5,
        wedge_timeout_s: float = 5.0,
        spawn_timeout_s: float = 60.0,
        max_frame_bytes: int = wire.MAX_FRAME_BYTES,
    ):
        require(int(replicas) >= 1, "replicas must be >= 1")
        require(heartbeat_s > 0.0, "heartbeat_s must be > 0")
        require(wedge_timeout_s > 0.0, "wedge_timeout_s must be > 0")
        self.database = database
        self.distance = distance
        self.manifest_path = Path(manifest_path)
        #: The bundle's vantage frame, loaded once and inherited by every
        #: (re)forked worker.
        self.frame = frame
        self.num_shards = int(num_shards)
        self.replicas = int(replicas)
        self.heartbeat_s = float(heartbeat_s)
        self.wedge_timeout_s = float(wedge_timeout_s)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self.max_frame_bytes = int(max_frame_bytes)
        self._ctx = multiprocessing.get_context("fork")
        self.groups: list[list[WorkerHandle]] = [
            [WorkerHandle(s, r) for r in range(self.replicas)]
            for s in range(self.num_shards)
        ]
        self._monitor: threading.Thread | None = None
        self._stop = threading.Event()
        self.spawns = 0
        self.restarts = 0
        self.wedge_kills = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Supervisor":
        require(self._monitor is None, "supervisor already started")
        for group in self.groups:
            for handle in group:
                self._spawn(handle)
                if not handle.alive:
                    self.stop()
                    raise ReplicaError(
                        f"replica {handle.shard_id}/{handle.replica_index} "
                        f"failed its startup handshake"
                    )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-replica-monitor",
            daemon=True,
        )
        self._monitor.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for group in self.groups:
            for handle in group:
                handle.close()  # EOF → worker exits its loop
        for group in self.groups:
            for handle in group:
                if handle.proc is not None:
                    handle.proc.join(timeout=1.0)
                    if handle.proc.is_alive():
                        handle.proc.kill()
                        handle.proc.join(timeout=1.0)

    # ------------------------------------------------------------------
    # Routing views
    # ------------------------------------------------------------------
    def live(self, shard_id: int) -> list[WorkerHandle]:
        """Live replicas of one shard, replica-index order (primary first)."""
        return [h for h in self.groups[shard_id] if h.alive]

    def report_failure(self, handle: WorkerHandle) -> None:
        """Router-side notice: an op on this worker failed.

        Poison and kill it; the monitor respawns it on its next tick.  A
        late response from a half-dead worker must never be read, so the
        pair is closed here, not recycled.
        """
        handle.mark_dead()
        handle.next_restart_at = time.monotonic()
        if handle.proc is not None and handle.proc.is_alive():
            handle.proc.kill()
        obs.counter("replica.deaths")

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def _inherited_sockets(self) -> list[socket.socket]:
        return [
            h.sock for group in self.groups for h in group
            if h.sock is not None
        ]

    def _spawn(self, handle: WorkerHandle) -> None:
        """(Re)fork one worker into ``handle``; sets ``alive`` on success."""
        if not handle.lock.acquire(timeout=1.0):
            return  # a failing caller is still draining; retry next tick
        try:
            handle.close()
            parent_sock, child_sock = socket.socketpair()
            # Forked children inherit every open fd; the child closes its
            # copies of the coordinator ends — the other workers' and its
            # own — first thing, so an EOF from the coordinator always
            # reaches its worker.
            inherited = self._inherited_sockets() + [parent_sock]
            proc = self._ctx.Process(
                target=_worker_entry,
                args=(
                    child_sock, inherited, self.database, self.distance,
                    str(self.manifest_path), handle.shard_id,
                    handle.replica_index, self.frame, self.max_frame_bytes,
                ),
                name=(
                    f"repro-shard{handle.shard_id}-r{handle.replica_index}"
                ),
                daemon=True,
            )
            proc.start()
            child_sock.close()
            handle.proc = proc
            handle.sock = parent_sock
            handle.reader = parent_sock.makefile("rb")
            handle.generation += 1
            handle.sessions = set()
            handle.busy_since = None
            handle.alive = True  # provisionally, for the handshake call
            self.spawns += 1
            obs.counter("replica.spawns")
        finally:
            handle.lock.release()
        try:
            hello = handle.call({"op": "hello"}, self.spawn_timeout_s,
                                max_frame=self.max_frame_bytes)
            require(hello.get("ok") is True, "bad hello response")
            handle.tree_nodes = int(hello["r"]["tree_nodes"])
            handle.num_graphs = int(hello["r"]["num_graphs"])
        except (ReplicaError, KeyError, TypeError, ValueError):
            handle.kill()
            handle.alive = False
            return
        handle.restart_attempts = 0
        handle.last_ok = time.monotonic()

    # ------------------------------------------------------------------
    # Monitor
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            for group in self.groups:
                for handle in group:
                    try:
                        self._check(handle)
                    except Exception:  # pragma: no cover - must survive
                        obs.counter("replica.monitor_errors")

    def _check(self, handle: WorkerHandle) -> None:
        now = time.monotonic()
        if handle.alive and handle.proc is not None and (
            not handle.proc.is_alive()
        ):
            # Crashed between ops: no caller noticed yet.
            handle.mark_dead()
            handle.next_restart_at = now
            obs.counter("replica.deaths")
        if not handle.alive:
            if now >= handle.next_restart_at:
                self._restart(handle)
            return
        busy_since = handle.busy_since
        if busy_since is not None and (
            now - busy_since > self.wedge_timeout_s
        ):
            # Wedged mid-op: kill it so the blocked caller gets EOF and
            # fails over instead of waiting out its own timeout.
            self.wedge_kills += 1
            obs.counter("replica.wedge_kills")
            handle.mark_dead()
            handle.next_restart_at = now
            if handle.proc is not None and handle.proc.is_alive():
                handle.proc.kill()
            return
        if busy_since is None and (
            now - handle.last_ok > self.wedge_timeout_s
        ):
            self._probe(handle)

    def _probe(self, handle: WorkerHandle) -> None:
        """Idle-worker heartbeat: ping with a short budget."""
        if not handle.lock.acquire(blocking=False):
            return  # became busy; the busy path covers it
        handle.lock.release()
        try:
            response = handle.call(
                {"op": "ping"},
                min(self.wedge_timeout_s, self.spawn_timeout_s),
                max_frame=self.max_frame_bytes,
            )
            require(response.get("ok") is True, "bad ping response")
            obs.counter("replica.heartbeats")
        except (ReplicaError, ValueError):
            obs.counter("replica.heartbeat_failures")
            self.report_failure(handle)

    def _restart(self, handle: WorkerHandle) -> None:
        if handle.proc is not None:
            handle.proc.join(timeout=0.1)  # reap the corpse
        self._spawn(handle)
        if handle.alive:
            self.restarts += 1
            obs.counter("replica.restarts")
        else:
            handle.restart_attempts += 1
            handle.next_restart_at = time.monotonic() + restart_delay(
                handle.restart_attempts - 1
            )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "replicas": self.replicas,
            "spawns": self.spawns,
            "restarts": self.restarts,
            "wedge_kills": self.wedge_kills,
            "live": [
                sum(1 for h in group if h.alive) for group in self.groups
            ],
            # Read from /proc by pid, so the wire carries nothing new.
            "rss_mb": [
                [
                    memory["rss_mb"] for h in group if h.alive
                    and (memory := obs.process_memory(h.proc.pid))
                ]
                for group in self.groups
            ],
        }

    def __repr__(self) -> str:
        live = sum(h.alive for g in self.groups for h in g)
        return (
            f"<Supervisor shards={self.num_shards} "
            f"replicas={self.replicas} live={live}/"
            f"{self.num_shards * self.replicas}>"
        )


def _worker_entry(
    conn, inherited, database, distance, manifest_path,
    shard_id, replica_index, frame, max_frame,
) -> None:
    """Child-process shim: drop inherited pipes, then serve."""
    for sock in inherited:
        try:
            # Not close(): that defers to the refcount of the parent's
            # makefile() reader and would leave the fd open here.
            os.close(sock.detach())
        except OSError:
            pass
    worker_main(
        conn, database, distance, manifest_path, shard_id, replica_index,
        frame, max_frame=max_frame,
    )
