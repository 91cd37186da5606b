"""The differential oracle: every deployment shape answers as the paper does.

The paper defines the answer — greedy over exact θ-neighbourhoods, the
smallest id on ties, within (1 − 1/e) of the optimum — and every
deployment shape must equal it.  One hypothesis state machine drives the
system's public verbs (build, reopen, query, a live session refined in θ
and extended k → 2k, insert / delete / update / compact / checkpoint /
close-and-reopen, replica kills and wedges, deadlines) in lock-step over

* ``baseline_greedy`` — the referee, per-pair star distances;
* an in-memory ``NBIndex``, and the same index saved and reopened
  through ``open_index``;
* an S = 4 bundle (hash or clustering partitioner) and a replicated
  R = 2 cluster over it;
* a mutable S = 2 index with a journal, and an in-process
  ``QueryService`` over it,

and after every query checks, on every shape:

* ids, gains, order and coverage equal the referee's over the live
  database (tombstones excluded), the certificate equal to the one the
  referee's gains give;
* the k-answer is a prefix of the 2k-answer and π is monotone in k;
* ``opt_upper`` ≥ the brute-force optimum and π ≥ (1 − 1/e) of it at
  tiny |L_q|;
* a served response equals the in-process ``QuerySession`` values;
* under a deadline, the unbudgeted answer or ``BudgetExceeded``.

Nothing here names the frontier, the cascade or the pair cache: the net
holds whatever the query path becomes.  Tier-1 runs a small
derandomized budget (the same examples every run);
``pytest tests/test_oracle.py --hypothesis-profile=deep`` searches at
random and deeper.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro
from repro.core.bruteforce import greedy_guarantee_holds, optimal_answer
from repro.core.representative import all_theta_neighborhoods
from repro.core.results import certify
from repro.engine import DistanceEngine
from repro.ged import StarDistance
from repro.graphs import GraphDatabase, quartile_relevance
from repro.graphs.io import save_database
from repro.graphs.relevance import AverageScoreThreshold
from repro.index import NBIndex, QuerySession, save_index
from repro.index.errors import IndexClosedError
from repro.replica import ReplicatedIndex
from repro.resilience import BudgetExceeded, Deadline
from repro.service import QueryRequest, QueryService
from repro.shard import build_shards
from tests.strategies import databases, feature_rows, new_graphs

#: Read-only shapes: they answer over the database they were built on.
FROZEN = ("nbindex", "reopened", "bundle", "replicated")
#: The brute-force optimum is taken when it has at most this many subsets.
MAX_SUBSETS = 3_000
#: Low quantiles first: a large L_q is where verification stops part-way.
QUANTILES = (0.05, 0.1, 0.3, 0.5, 0.75, 0.95)


class Referee:
    """``baseline_greedy`` with its per-pair star distances memoised by
    graph content, so a database's pairs are measured once per run."""

    def __init__(self):
        self.star = StarDistance()
        self.memo: dict = {}
        self.forms: dict = {}  # id(graph) -> (graph, its canonical form)

    def __call__(self, a, b) -> float:
        key = (self.form(a), self.form(b))
        if key not in self.memo:
            self.memo[key] = self.star(a, b)
        return self.memo[key]

    def form(self, graph):
        """``graph``'s canonical form, taken once per graph object (the
        entry keeps the object, so its id is not reused)."""
        entry = self.forms.get(id(graph))
        if entry is None:
            entry = self.forms[id(graph)] = (graph, graph.canonical_form())
        return entry[1]

    def answer(self, database, query_fn, theta, k):
        """The referee's answer, its certificate filled in."""
        result = repro.baseline_greedy(database, self, query_fn, theta, k)
        return certify(result, k)

    def optimum(self, database, query_fn, theta, k) -> int | None:
        """The brute-force optimum's coverage, or ``None`` if too many
        subsets."""
        relevant = [int(g) for g in database.relevant_indices(query_fn)]
        if math.comb(len(relevant), min(k, len(relevant))) > MAX_SUBSETS:
            return None
        neighborhoods = all_theta_neighborhoods(database, self, relevant, theta)
        return optimal_answer(neighborhoods, relevant, k, max_candidates=64)[1]


def assert_paper_answer(got, want, optimum, where: str) -> None:
    """``got`` is the referee's answer, certificate included; its
    certificate bounds the optimum, and it is within (1 − 1/e) of it."""
    assert (got.answer, got.gains, got.num_relevant) == (
        want.answer, want.gains, want.num_relevant,
    ), where
    assert set(got.covered) == set(want.covered), where
    assert (got.opt_upper, got.certified_ratio) == (
        want.opt_upper, want.certified_ratio,
    ), where
    if optimum is not None:
        assert got.opt_upper >= optimum, where
        assert greedy_guarantee_holds(len(got.covered), optimum), where


def served_body(result) -> dict:
    """The wire body an in-process result must be served as."""
    return {
        "answer": [int(g) for g in result.answer],
        "gains": [int(g) for g in result.gains],
        "pi": float(result.pi),
        "num_relevant": int(result.num_relevant),
        "theta": float(result.theta),
        "opt_upper": int(result.opt_upper),
        "certified_ratio": float(result.certified_ratio),
    }


class Oracle(RuleBasedStateMachine):
    """Every deployment shape in lock-step with the referee."""

    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="repro-oracle-"))
        self.referee = Referee()
        self.shapes: dict = {}
        self.mutable = self.service = None
        self.sessions: dict = {}
        #: ``(query_fn, θ, k, {shape: result})`` of the live sessions'
        #: last query (``build`` opens them).
        self.last = None
        self.relevances: list = []  # (query_fn, wire) asked so far
        self.wedged = False  # one wedge a run: each costs an op timeout
        self.stopped: list[int] = []  # pids the wedge stopped
        self.next_id = 0

    # ------------------------------------------------------------------
    # Build and open
    # ------------------------------------------------------------------
    @initialize(
        database=databases(),
        partitioner=st.sampled_from(["hash", "clustering"]),
        data=st.data(),
    )
    def build(self, database, partitioner, data):
        self.base = database
        n = len(database)
        build = dict(num_vantage_points=min(4, n), seed=0)
        self.graphs = list(database.graphs)
        self.rows = [list(row) for row in database.features]
        self.deleted: set[int] = set()

        index = NBIndex.build(database, StarDistance(), **build)
        save_index(index, self.tmp / "index.npz")
        bundle = build_shards(
            database, StarDistance(), num_shards=4, out_dir=self.tmp / "s4",
            partitioner=partitioner, **build,
        )
        self.shapes = {
            "nbindex": index,
            "reopened": repro.open_index(self.tmp / "index.npz", database),
            "bundle": repro.open_index(bundle, database),
            "replicated": ReplicatedIndex.open(
                bundle, database, StarDistance(), replicas=2,
                op_timeout_s=0.5, heartbeat_s=0.05, wedge_timeout_s=0.25,
            ),
        }
        self.mutable_paths = dict(
            path=build_shards(
                database, StarDistance(), num_shards=2,
                out_dir=self.tmp / "s2", **build,
            ),
            database=self.tmp / "db.jsonl",
            journal=self.tmp / "m.journal",
        )
        save_database(database, self.mutable_paths["database"])
        self._open_mutable()
        # θ candidates: every pairwise distance (the ≤ θ boundary), the
        # gaps between them, below the smallest and above the diameter.
        graphs = list(database.graphs)
        distances = sorted(set(
            DistanceEngine(StarDistance(), graphs=graphs)
            .columns(graphs, graphs).ravel().tolist()
        ) - {0.0})
        mids = [(x + y) / 2 for x, y in zip(distances, distances[1:])]
        smallest = distances[0] if distances else 1.0
        largest = distances[-1] if distances else 1.0
        self.thetas = sorted(
            set(distances + mids) | {smallest / 2, largest + 1.0, 1e6}
        )
        self.open_sessions(data)

    def _open_mutable(self):
        self.mutable = repro.open_index(mutable=True, **self.mutable_paths)
        self.service = QueryService(self.mutable).start()

    def live(self) -> GraphDatabase:
        """The model of the mutable index's database, built afresh."""
        database = GraphDatabase(self.graphs, self.rows)
        for gid in self.deleted:
            database.mark_deleted(gid)
        return database

    # ------------------------------------------------------------------
    # Draws
    # ------------------------------------------------------------------
    def draw_relevance(self, data):
        """``(query_fn, wire)``: ``wire`` is the service request's
        ``(quantile, dims)`` when the function is a quantile rule.  A
        function asked once is asked again, at other θ and k, more often
        than a new one is drawn: that is where per-function state lives."""
        pick = data.draw(st.integers(0, len(self.relevances)), label="relevance")
        if pick < len(self.relevances):
            return self.relevances[pick]
        width = self.base.num_features
        dims = tuple(sorted(data.draw(
            st.sets(st.integers(0, width - 1), min_size=1, max_size=3),
            label="dims",
        )))
        kind = data.draw(st.sampled_from(["quantile"] * 4 + ["top", "none"]))
        wire = None
        if kind == "quantile":
            quantile = data.draw(st.sampled_from(QUANTILES), label="quantile")
            query_fn = quartile_relevance(self.base, dims, quantile)
            wire = (quantile, dims)
        else:  # |L_q| is the ties at the top score, or 0
            top = float(self.base.features[:, list(dims)].mean(axis=1).max())
            query_fn = AverageScoreThreshold(
                dims, top if kind == "top" else top + 1.0
            )
        self.relevances.append((query_fn, wire))
        return query_fn, wire

    def draw_query(self, data):
        """``(query_fn, wire, θ, k)``."""
        query_fn, wire = self.draw_relevance(data)
        return query_fn, wire, self.draw_theta(data), self.draw_k(data)

    def draw_theta(self, data) -> float:
        """Any candidate θ, or one among the smallest eighth: small
        neighbourhoods are where verification stops part-way."""
        smallest = self.thetas[:max(1, len(self.thetas) // 8)]
        return data.draw(
            st.sampled_from(smallest) | st.sampled_from(self.thetas),
            label="theta",
        )

    def draw_k(self, data) -> int:
        return data.draw(st.integers(1, len(self.base) + 1), label="k")

    def expect(self, database, query_fn, theta, k):
        return (
            self.referee.answer(database, query_fn, theta, k),
            self.referee.optimum(database, query_fn, theta, k),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @rule(data=st.data())
    def query_every_shape(self, data):
        query_fn, wire, theta, k = self.draw_query(data)
        want, optimum = self.expect(self.base, query_fn, theta, k)
        for name in FROZEN:
            got = self.shapes[name].query(query_fn, theta, k)
            assert_paper_answer(got, want, optimum, name)
        live = self.live()
        want, optimum = self.expect(live, query_fn, theta, k)
        got = self.mutable.query(query_fn, theta, k)
        assert_paper_answer(got, want, optimum, "mutable")
        if wire is not None:
            self.check_served(live, wire, theta, k)

    def check_served(self, live, wire, theta, k):
        """A served response is the in-process session's answer over the
        live database, and the referee's."""
        quantile, dims = wire
        query_fn = quartile_relevance(live, dims, quantile)
        want, optimum = self.expect(live, query_fn, theta, k)
        in_process = QuerySession(self.mutable, query_fn).query(theta, k)
        assert_paper_answer(in_process, want, optimum, "mutable session")
        response = self.call(theta=theta, k=k, quantile=quantile, dims=dims)
        assert response["ok"], response
        body = dict(response["result"])
        body.pop("generation")
        assert body == served_body(in_process)

    def call(self, **request) -> dict:
        self.next_id += 1
        return self.service.call(QueryRequest(id=self.next_id, **request))

    @rule(data=st.data())
    def open_sessions(self, data):
        """A live session per read-only shape, and its first query."""
        query_fn, _, theta, k = self.draw_query(data)
        self.sessions = {
            name: self.shapes[name].session(query_fn) for name in FROZEN
        }
        self.session_query(query_fn, theta, k)

    def session_query(self, query_fn, theta, k):
        want, optimum = self.expect(self.base, query_fn, theta, k)
        got = {}
        for name, session in self.sessions.items():
            got[name] = session.query(theta, k)
            assert_paper_answer(got[name], want, optimum, f"{name} session")
        self.last = (query_fn, theta, k, got)

    @rule(data=st.data())
    def refine_theta(self, data):
        query_fn, _, k, _ = self.last
        self.session_query(query_fn, self.draw_theta(data), k)

    @rule()
    def extend_k(self):
        query_fn, theta, k, before = self.last
        self.session_query(query_fn, theta, 2 * k)
        for name, wider in self.last[3].items():
            narrow = before[name]
            assert wider.answer[:len(narrow.answer)] == narrow.answer, name
            assert wider.gains[:len(narrow.gains)] == narrow.gains, name
            assert wider.pi >= narrow.pi, name

    @rule()
    def repeat_on_live_session(self):
        query_fn, theta, k, _ = self.last
        self.session_query(query_fn, theta, k)

    @rule()
    def reopen(self):
        """Reopen a saved read-only shape from its artifact."""
        self.shapes["reopened"] = repro.open_index(
            self.tmp / "index.npz", self.base
        )
        self.sessions.pop("reopened", None)

    @rule(
        data=st.data(),
        budget=st.sampled_from([0.0, 1e-4, 1e-3, 0.05]),
        shape=st.sampled_from(FROZEN + ("mutable", "served")),
    )
    def impose_a_deadline(self, data, budget, shape):
        """The only outcomes: the unbudgeted answer, or ``BudgetExceeded``
        (``deadline_expired`` on the wire)."""
        query_fn, wire, theta, k = self.draw_query(data)
        if shape == "served":
            if wire is None:
                return
            quantile, dims = wire
            response = self.call(
                theta=theta, k=k, quantile=quantile, dims=dims,
                timeout_ms=budget * 1000,
            )
            if not response["ok"]:
                assert response["error"]["code"] == "deadline_expired"
                return
            live = self.live()
            want, _ = self.expect(
                live, quartile_relevance(live, dims, quantile), theta, k
            )
            assert response["result"]["answer"] == want.answer
            assert response["result"]["gains"] == want.gains
            return
        index = self.mutable if shape == "mutable" else self.shapes[shape]
        database = self.live() if shape == "mutable" else self.base
        try:
            got = index.query(query_fn, theta, k, deadline=Deadline(budget))
        except BudgetExceeded:
            return
        want, optimum = self.expect(database, query_fn, theta, k)
        assert_paper_answer(got, want, optimum, f"{shape} under a deadline")

    # ------------------------------------------------------------------
    # Mutations (the mutable shape and its model)
    # ------------------------------------------------------------------
    def draw_graph(self, data):
        return (
            data.draw(new_graphs(self.base), label="graph"),
            data.draw(feature_rows(self.base.num_features), label="features"),
        )

    @rule(data=st.data())
    def insert(self, data):
        graph, row = self.draw_graph(data)
        assert self.mutable.insert(graph, row) == len(self.graphs)
        self.graphs.append(graph)
        self.rows.append(row)

    @rule(data=st.data())
    def delete(self, data):
        gid = data.draw(st.integers(0, len(self.graphs) - 1), label="gid")
        assert self.mutable.delete(gid) is (gid not in self.deleted)
        self.deleted.add(gid)

    @precondition(lambda self: len(self.deleted) < len(self.graphs))
    @rule(data=st.data())
    def update(self, data):
        alive = [g for g in range(len(self.graphs)) if g not in self.deleted]
        gid = data.draw(st.sampled_from(alive), label="gid")
        graph, row = self.draw_graph(data)
        assert self.mutable.update(gid, graph, row) == len(self.graphs)
        self.graphs.append(graph)
        self.rows.append(row)
        self.deleted.add(gid)

    @rule()
    def compact(self):
        self.mutable.compact()
        assert self.mutable.memtable_size == 0

    @rule()
    def checkpoint(self):
        self.mutable.checkpoint()

    @rule()
    def close_then_reopen(self):
        """A closed index refuses, typed; the reopened one replays its
        journal into the database the model holds."""
        self.service.drain()
        self.mutable.close()
        with pytest.raises(IndexClosedError):
            self.mutable.query(lambda row: True, 1.0, 1)
        self._open_mutable()
        assert len(self.mutable.database) == len(self.graphs)
        assert self.mutable.database.deleted == frozenset(self.deleted)

    # ------------------------------------------------------------------
    # Replica faults (the replicated shape)
    # ------------------------------------------------------------------
    @rule(data=st.data(), replica=st.integers(0, 1))
    def kill_a_replica(self, data, replica):
        self.fault_a_replica(data, replica, lambda proc: proc.kill())

    @precondition(lambda self: not self.wedged)
    @rule(data=st.data(), replica=st.integers(0, 1))
    def wedge_a_replica(self, data, replica):
        """A stopped worker answers nothing; the router's op timeout and
        the supervisor's heartbeat must route around it."""
        self.wedged = True

        def stop(proc):
            os.kill(proc.pid, signal.SIGSTOP)
            self.stopped.append(proc.pid)

        self.fault_a_replica(data, replica, stop)

    def fault_a_replica(self, data, replica, fault):
        """Fault one worker, ask the cluster a query — the sibling answers
        it, or the restarted worker does — then wait for the supervisor's
        restart, so the fleet is whole again for the next rule."""
        cluster = self.shapes["replicated"]
        handle = cluster.supervisor.handles[replica]
        generation = handle.generation
        fault(handle.proc)
        query_fn, _, theta, k = self.draw_query(data)
        want, optimum = self.expect(self.base, query_fn, theta, k)
        got = cluster.query(query_fn, theta, k)
        assert_paper_answer(got, want, optimum, "replicated, a worker down")
        waited = time.monotonic() + 60.0
        while not (handle.alive and handle.generation > generation):
            assert time.monotonic() < waited, "the worker was never restarted"
            time.sleep(0.02)

    @invariant()
    def live_database_matches_the_model(self):
        if self.mutable is not None:
            assert len(self.mutable.database) == len(self.graphs)

    def teardown(self):
        for pid in self.stopped:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
        if self.service is not None:
            self.service.drain()
        if self.mutable is not None:
            self.mutable.close()
        cluster = self.shapes.get("replicated")
        if cluster is not None:
            cluster.close()
            assert not any(h.proc.is_alive() for h in cluster.supervisor.handles)
        if "bundle" in self.shapes:
            self.shapes["bundle"].close()
        shutil.rmtree(self.tmp, ignore_errors=True)


TestOracle = Oracle.TestCase
TestOracle.settings = settings(
    deadline=None,
    # No explain phase: it re-runs the failing example under a line
    # tracer, which costs minutes over star distances.
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target,
            Phase.shrink],
    suppress_health_check=list(HealthCheck),
    **(
        {} if settings.get_current_profile_name() == "deep"
        else dict(max_examples=30, stateful_step_count=15, derandomize=True)
    ),
)
