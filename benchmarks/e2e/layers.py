"""Per-layer metrics of a traced run.

Every name declared under ``per_layer`` in ``BENCHMARK.json`` is produced
for every workload; a layer the workload leaves idle reports 0, which is
the prediction the README's layer map makes for it.  Inputs are the merged
span aggregate (``trace.merge``), the counters the public API returned
(``QueryResult.stats``, ``engine.stats()``, the wire ``stats`` op) and the
single-layer microbenchmarks the workload ran with recorders paused.
"""

from __future__ import annotations

import trace as e2e_trace
from harness import engine_totals, sum_coordinator, sum_stats

LAYERS = (
    "ged", "engine", "cascade", "bitset", "index", "shard", "delta",
    "durability", "replica", "service", "graphs",
)
CASCADE_STAGES = ("label_size", "assignment", "star", "vantage")


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(run, parts: dict, document: dict, per_span_cost_s: float,
                  names) -> dict:
    """``{metric name: value}`` for every name in ``names``."""
    aggregate = document["aggregate"]
    counters = document["counters"]
    self_s = e2e_trace.layer_self_seconds(aggregate)

    def spans(name):
        return e2e_trace.span_stats(aggregate, name)

    def layer_calls(layer):
        return sum(row["count"] for row in aggregate if row["layer"] == layer)

    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    micro = parts.get("micro", {})
    extra = parts.get("extra", {})
    all_stats = [s for stats in run.query_stats.values() for s in stats]
    cold_stats = run.query_stats.get("query.cold", [])

    # end-to-end timings, as the traced run saw them
    for name in (
        "query_p50_ms", "query_p75_ms", "query_cold_p50_ms", "queries_per_s",
        "recovery_s",
    ):
        out[f"e2e.{name}"] = extra.get(name, 0.0)

    # ged
    out["ged.pair_evals"] = counters.get("ged.pair_evals", 0)
    out["ged.us_per_pair"] = micro.get("ged.us_per_pair", 0.0)

    # engine: public counters of every engine that served the workload
    # (in-process: read directly; served: dumped by each worker)
    totals = engine_totals(parts.get("engines") or document.get("engines", ()))
    out["engine.calls"] = layer_calls("engine")
    out["engine.pairs_requested"] = totals["evaluations"] + totals["cache_hits"]
    out["engine.evaluations"] = totals["evaluations"]
    out["engine.cache_hit_rate"] = _ratio(
        totals["cache_hits"], totals["evaluations"] + totals["cache_hits"]
    )
    out["engine.batches"] = totals["batches"]
    out["engine.us_per_cached_pair"] = micro.get(
        "engine.us_per_cached_pair", 0.0
    )

    # cascade: per-stage counters of every runtime that ran
    stages = document.get("cascade", {})
    pairs_in = counters.get("cascade.pairs_in", 0)
    pruned = accepted = 0
    for stage in CASCADE_STAGES:
        entry = stages.get(stage, {})
        out[f"cascade.{stage}.evals"] = entry.get("evals", 0)
        out[f"cascade.{stage}.prunes"] = entry.get("prunes", 0)
        pruned += entry.get("prunes", 0)
        accepted += entry.get("accepts", 0)
    out["cascade.prune_rate"] = _ratio(pruned, pairs_in)
    out["cascade.exact_per_candidate"] = _ratio(
        pairs_in - pruned - accepted, pairs_in
    )

    # bitset
    out["bitset.calls"] = layer_calls("bitset")
    out["bitset.uncovered_counts_ms"] = micro.get(
        "bitset.uncovered_counts_ms", 0.0
    )

    # index
    build = sum(run.samples.get("setup.build", []))
    out["index.build_s"] = build
    out["index.save_s"] = sum(run.samples.get("setup.save", []))
    out["index.open_s"] = sum(run.samples.get("setup.open", [])) or sum(
        run.samples.get("setup.serve", [])
    )
    for field in ("init", "search", "update"):
        out[f"index.{field}_s"] = sum_stats(all_stats, f"{field}_seconds")
    for field in (
        "nodes_popped", "pruned_subtrees", "candidate_verifications",
        "exact_neighborhoods",
    ):
        out[f"index.{field}"] = sum_stats(all_stats, field)
    # The waste ratio: exactly resolved θ-neighborhoods per relevant graph
    # on the cold pass.  A sharded query counts one resolve per scatter
    # (every shard then materializes its part).
    resolved = sum_coordinator(cold_stats, "scatter_resolves") or sum_stats(
        cold_stats, "exact_neighborhoods"
    )
    out["index.resolved_frac"] = _ratio(
        resolved,
        sum(a["num_relevant"] for k, a in run.answers[: len(cold_stats)]),
    )
    out["index.refine_p50_ms"] = extra.get("refine_p50_ms", 0.0)

    # shard
    for field in (
        "pulls", "scatter_resolves", "pi_hat_refines", "broadcast_words",
        "foreign_embeds",
    ):
        out[f"shard.{field}"] = sum_coordinator(all_stats, field)
    out["shard.refine_prune_rate"] = _ratio(
        sum_coordinator(all_stats, "refine_prunes"),
        sum_coordinator(all_stats, "pi_hat_refines"),
    )
    out["shard.overhead_x"] = micro.get("shard.overhead_x", 0.0)

    # delta
    mutation_spans = [
        spans(f"MutableIndex.{op}") for op in ("insert", "delete", "update")
    ]
    mutations = sum(s[0] for s in mutation_spans)
    appends = [
        spans(f"MutationJournal.append_{op}")
        for op in ("insert", "delete", "update")
    ]
    append_count = sum(s[0] for s in appends)
    insert_count, insert_total, _ = mutation_spans[0]
    out["delta.insert_us"] = _ratio(
        insert_total - appends[0][1], insert_count
    ) * 1e6
    out["delta.journal_append_us"] = _ratio(
        sum(s[1] for s in appends), append_count
    ) * 1e6
    fsyncs_in_appends = sum(
        row["count"] for row in aggregate
        if row["name"] == "os.fsync"
        and str(row["parent"]).startswith("MutationJournal.append")
    )
    out["delta.fsyncs_per_mutation"] = _ratio(fsyncs_in_appends, mutations)
    out["delta.memtable_query_x"] = run.info.get("memtable_query_x", 0.0)
    out["delta.rebuilt_shards"] = len(
        (run.info.get("compact_report") or {}).get("rebuilt_shards", ())
    )
    out["delta.mutation_p50_ms"] = extra.get("mutation_p50_ms", 0.0)
    out["delta.compact_s"] = extra.get("compact_s", 0.0)
    out["delta.journal_bytes_per_mutation"] = extra.get(
        "journal_bytes_per_mutation", 0.0
    )

    # durability
    checkpoint = run.info.get("checkpoint_report") or {}
    out["durability.checkpoint_s"] = extra.get("checkpoint_s", 0.0)
    out["durability.checkpoint_bytes"] = checkpoint.get("base_bytes", 0)
    out["durability.first_answer_s"] = extra.get("first_answer_s", 0.0)
    out["durability.replay_records_per_s"] = _ratio(
        counters.get("durability.replayed_records", 0),
        counters.get("durability.replay_s", 0.0),
    )

    # replica (router side in the server, worker side in its children)
    router_ops = spans("ReplicaRouter.call")[0] + spans(
        "ReplicaRouter.broadcast"
    )[0]
    served_queries = spans("ReplicatedIndex.query")[0]
    out["replica.ops_per_query"] = _ratio(router_ops, served_queries)
    out["replica.bytes_per_query"] = _ratio(
        counters.get("replica.frame_bytes", 0), served_queries
    )
    out["replica.worker_busy_s"] = spans("ShardWorker.handle")[1]
    out["replica.failovers"] = counters.get("replica.failovers", 0)
    out["replica.restarts"] = run.info.get("replica_restarts", 0)
    # One client alone, warm, first four queries: what the server spent
    # inside the replicated index per query, against the in-process
    # sharded index behind the same service code (overhead_x) and against
    # what the client saw on the wire (service.overhead_ms).
    wire_rows = [
        row for row in aggregate
        if row["name"] == "ReplicatedIndex.query"
        and str(row["request"]).startswith("query.solo/")
    ]
    replicated_s = _ratio(
        sum(row["total_s"] for row in wire_rows),
        sum(row["count"] for row in wire_rows),
    )
    wire_s = micro.get("_solo_mean_s", 0.0)
    out["replica.overhead_x"] = _ratio(
        replicated_s, micro.get("_inproc_warm_mean_s", 0.0)
    )

    # service
    out["service.ping_p50_us"] = micro.get("service.ping_p50_us", 0.0)
    out["service.overhead_ms"] = (
        (wire_s - replicated_s) * 1e3 if wire_s and replicated_s else 0.0
    )
    out["service.queue_wait_ms"] = _ratio(
        counters.get("service.queue_wait_s", 0.0),
        counters.get("service.queue_waits", 0),
    ) * 1e3
    out["service.shed"] = run.info.get("service_shed", 0)
    out["service.concurrency_x"] = micro.get("service.concurrency_x", 0.0)

    # graphs
    out["graphs.load_db_s"] = spans("io.load_database")[1]

    # obs: calibrated cost of the spans this run recorded, over the time
    # the traced operations took; and how much of that time the span tree
    # accounts for (top-level spans = Σ self times).
    span_count = sum(row["count"] for row in aggregate)
    wall = sum(sum(v) for v in run.samples.values())
    out["obs.trace_overhead_frac"] = _ratio(span_count * per_span_cost_s, wall)
    out["obs.self_sum_over_wall"] = _ratio(sum(self_s.values()), wall)
    out["obs.spans"] = span_count

    missing = [name for name in names if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not produced: {missing}")
    return {name: float(out[name]) for name in names}
