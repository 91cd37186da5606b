"""Command-line interface.

Wires the library's main workflows into subcommands::

    repro generate dud --num-graphs 500 --seed 7 --output dud.jsonl
    repro stats dud.jsonl
    repro build-index dud.jsonl --output dud-index.npz
    repro shard-build dud.jsonl --output dud-shards/ --shards 4
    repro query dud.jsonl --k 10 [--theta 10] [--index dud-index.npz]
    repro query dud.jsonl --k 10 --shards dud-shards/manifest.json
    repro serve dud.jsonl --index dud-index.npz [--tcp 127.0.0.1:7341]
    repro serve dud.jsonl --shards dud-shards/manifest.json
    repro checkpoint dud.jsonl --journal dud.journal
    repro backup backups/snap --database dud.jsonl --journal dud.journal
    repro restore backups/snap restored/
    repro verify dud-shards/manifest.json
    repro experiment fig2a_disc_growth | --all

``repro experiment`` runs one entry of the experiment registry
(:mod:`repro.bench.registry`) — or all of them — at the
``REPRO_BENCH_SCALE`` scale, prints each paper-style table, persists it
under ``results/`` and checks the paper claim it reproduces.

``repro query`` and ``repro build-index`` accept ``--metrics PATH``
(write a ``repro.obs`` JSON document — or Prometheus text when the path
ends in ``.prom``) and ``--trace`` (print the counter/span report after
the run).  Setting ``REPRO_OBS=1`` turns observability on for any
subcommand without flags.
"""

from __future__ import annotations

import argparse
import io
import signal
import sys

from repro import __version__, obs


def _start_observation(args):
    """Flip observability on when ``--metrics``/``--trace`` ask for it."""
    if getattr(args, "metrics", None) or getattr(args, "trace", False):
        return obs.observe()
    return None


def _finish_observation(observation, args) -> None:
    if observation is None:
        return
    if args.metrics:
        observation.write(args.metrics)
        print(f"wrote metrics to {args.metrics}")
    if args.trace:
        observation.report()
    observation.__exit__(None, None, None)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------
def cmd_generate(args) -> int:
    from repro.datasets import GENERATORS
    from repro.graphs import save_database

    generator = GENERATORS[args.dataset]
    database = generator(num_graphs=args.num_graphs, seed=args.seed)
    save_database(database, args.output)
    summary = database.summary()
    print(
        f"wrote {args.output}: {summary['num_graphs']} graphs, "
        f"avg {summary['avg_nodes']:.1f} nodes / {summary['avg_edges']:.1f} "
        f"edges, {summary['num_features']} features"
    )
    return 0


def cmd_stats(args) -> int:
    from repro.analysis import sample_distances
    from repro.ged import StarDistance
    from repro.graphs import load_database

    database = load_database(args.database)
    summary = database.summary()
    print(f"graphs:   {summary['num_graphs']}")
    print(f"avg size: {summary['avg_nodes']:.1f} nodes / "
          f"{summary['avg_edges']:.1f} edges")
    print(f"features: {summary['num_features']}d")
    distribution = sample_distances(
        database, StarDistance(),
        num_pairs=min(args.num_pairs, len(database) * 4), rng=args.seed,
    )
    print(f"distance: mu={distribution.mean:.1f} sigma={distribution.std:.1f} "
          f"max={distribution.diameter_estimate:.1f}")
    for quantile in (0.01, 0.05, 0.25, 0.5):
        print(f"  q{int(quantile * 100):>2} = {distribution.quantile(quantile):.1f}")
    return 0


def cmd_build_index(args) -> int:
    import repro
    from repro.ged import StarDistance
    from repro.index import NBIndex, save_index

    observation = _start_observation(args)
    database = repro.open_database(args.database)
    index = NBIndex.build(
        database, StarDistance(),
        num_vantage_points=args.vantage_points, seed=args.seed,
    )
    save_index(index, args.output)
    print(
        f"wrote {args.output}: {index.embedding.num_vantage_points} VPs, "
        f"built in {index.build_seconds:.1f}s "
        f"({index.stats()['distance_calls']} edit distances)"
    )
    _finish_observation(observation, args)
    return 0


def cmd_shard_build(args) -> int:
    import repro
    from repro.ged import StarDistance
    from repro.shard import build_shards

    observation = _start_observation(args)
    database = repro.open_database(args.database)
    distance = StarDistance()
    manifest_path = build_shards(
        database, distance, num_shards=args.shards, out_dir=args.output,
        partitioner=args.partitioner,
        num_vantage_points=args.vantage_points, seed=args.seed,
    )
    # Load the bundle back: a build that cannot be served is a failed build.
    sharded = repro.open_index(manifest_path, database, distance, shards=True)
    stats = sharded.stats()
    sizes = "/".join(str(s["num_graphs"]) for s in stats["shards"])
    print(
        f"wrote {manifest_path}: {stats['num_shards']} shards "
        f"({sizes} graphs), "
        f"partitioner={stats['partitioner']}, "
        f"built in {sharded.manifest.build['total_seconds']:.1f}s"
    )
    _finish_observation(observation, args)
    return 0


def cmd_query(args) -> int:
    import repro
    from repro.cascade import EpsilonError, validate_epsilon
    from repro.datasets import calibrate_theta
    from repro.ged import StarDistance
    from repro.graphs import quartile_relevance
    from repro.index import NBIndex

    if args.shards and (args.index or args.method == "greedy"):
        print("query: --shards conflicts with --index/--method greedy",
              file=sys.stderr)
        return 2
    if args.journal and not (args.shards or args.index):
        print("query: --journal needs --index or --shards", file=sys.stderr)
        return 2
    try:
        epsilon = validate_epsilon(args.epsilon)
    except EpsilonError as error:
        print(f"query: {error}", file=sys.stderr)
        return 2
    if epsilon and args.method == "greedy":
        print("query: --epsilon conflicts with --method greedy "
              "(the baseline evaluates every pair exactly)",
              file=sys.stderr)
        return 2
    observation = _start_observation(args)
    distance = StarDistance()

    # Resolve the index before relevance/theta: a --journal open replays
    # journaled mutations into the database, and both the relevance
    # thresholds and any calibrated theta must see the mutated content.
    # With a journal the database travels as a path — a checkpointed
    # journal (generation > 0) pins its own base file, and open_index
    # loads + verifies that instead of the original.
    database = (
        args.database if args.journal
        else repro.open_database(args.database)
    )
    index = None
    if args.shards or args.index:
        index = repro.open_index(
            args.shards or args.index, database, distance,
            shards=bool(args.shards),
            mutable=bool(args.journal), journal=args.journal or None,
            seed=args.seed,
        )
        if args.journal:
            database = index.database

    theta = args.theta
    if theta is None:
        theta = calibrate_theta(database, distance, quantile=0.05, rng=args.seed)
        print(f"calibrated theta = {theta:.2f}")
    dims = args.dims if args.dims else None
    q = quartile_relevance(database, dims=dims, quantile=args.quantile)

    deadline = None
    if args.deadline_ms is not None:
        from repro.resilience import Deadline

        deadline = Deadline.from_timeout_ms(args.deadline_ms)

    from repro.resilience.deadline import deadline_scope

    with deadline_scope(deadline):
        if args.method == "greedy":
            from repro.core import baseline_greedy
            from repro.engine import DistanceEngine

            engine = DistanceEngine(distance, graphs=database.graphs)
            result = baseline_greedy(
                database, distance, q, theta, args.k, engine=engine
            )
        else:
            if index is None:
                index = NBIndex.build(
                    database, distance, num_vantage_points=args.vantage_points,
                    seed=args.seed,
                )
            result = index.query(q, theta, args.k, epsilon=epsilon)
            if args.journal:
                index.close()

    print(f"relevant graphs: {result.num_relevant}")
    print(f"pi(A) = {result.pi:.3f}   CR = {result.compression_ratio:.1f}")
    print(f"{'rank':<6}{'graph':<8}{'gain':<6}{'nodes':<7}{'edges':<7}")
    for rank, (gid, gain) in enumerate(zip(result.answer, result.gains), 1):
        g = database[gid]
        print(f"{rank:<6}{gid:<8}{gain:<6}{g.num_nodes:<7}{g.num_edges:<7}")
    if result.opt_upper is not None:
        print(
            f"certified: OPT <= {result.opt_upper} covered graphs, "
            f"pi(A)/OPT >= {result.certified_ratio:.3f}"
        )
    if result.stats.approximate:
        print(
            f"approximate: epsilon={result.stats.epsilon:g} — neighborhoods "
            f"within [(1−ε)θ, θ]; greedy keeps the (1−1/e−ε) guarantee"
        )
    if deadline is not None:
        _print_degradation_footer(deadline)
    _finish_observation(observation, args)
    return 0


def _print_degradation_footer(deadline) -> None:
    """One-line summary of what the deadline budget cost the query."""
    if not deadline.degradations:
        print(f"deadline: met — all edit distances exact ({deadline!r})")
        return
    breakdown = ", ".join(
        f"{kind}={count}"
        for kind, count in sorted(deadline.degradations.items())
    )
    total = sum(deadline.degradations.values())
    print(
        f"deadline: DEGRADED — {total} edit distances fell back to upper "
        f"bounds ({breakdown}); pi/CR above are computed on approximate "
        f"neighborhoods"
    )


def _stdin_lines():
    """The stdin transport's request stream: a private reader over fd 0.

    A replica restart forks while the main thread is blocked in
    ``readline()``; had that been ``sys.stdin.readline()``, the child
    would inherit ``sys.stdin``'s buffer lock held and deadlock in
    multiprocessing's ``_close_stdin``.
    """
    try:
        fd = sys.stdin.fileno()
    except io.UnsupportedOperation:  # an in-memory stand-in has no lock to hold
        return sys.stdin
    return open(fd, "r", encoding="utf-8", closefd=False)


def cmd_serve(args) -> int:
    from repro.service import QueryService, ServiceConfig
    from repro.service.crashlog import DEFAULT_MAX_BYTES
    from repro.service.server import serve_lines, serve_tcp

    observation = _start_observation(args)
    if args.crash_log_max_bytes is None:
        crash_log_max = DEFAULT_MAX_BYTES
    else:  # 0 disables rotation entirely
        crash_log_max = args.crash_log_max_bytes or None
    config = ServiceConfig(
        max_concurrency=args.concurrency,
        max_queue=args.max_queue,
        default_timeout_ms=args.deadline_ms,
        drain_grace_s=args.drain_grace,
        crash_log=args.crash_log,
        crash_log_max_bytes=crash_log_max,
        crash_log_keep=args.crash_log_keep,
        watch=args.watch,
        reload_poll_s=args.reload_poll,
        metrics_path=args.metrics,
        scrub_interval_s=args.scrub_interval,
    )
    if args.mutable and args.watch:
        print("serve: --mutable conflicts with --watch (compaction owns "
              "index swaps)", file=sys.stderr)
        return 2
    if args.journal and not args.mutable:
        print("serve: --journal needs --mutable", file=sys.stderr)
        return 2
    if args.replicas is not None:
        if not args.shards:
            print("serve: --replicas needs --shards (a manifest bundle to "
                  "replicate)", file=sys.stderr)
            return 2
        if args.mutable or args.watch:
            print("serve: --replicas conflicts with --mutable/--watch "
                  "(worker processes hold immutable artifacts)",
                  file=sys.stderr)
            return 2
    service = QueryService.open(
        args.database,
        index_path=args.index,
        shards_path=args.shards,
        config=config,
        mutable=args.mutable,
        journal=args.journal or None,
        replicas=args.replicas,
        seed=args.seed,
    ).start()
    # A container SIGTERM (or Ctrl-C) must run the same graceful-drain
    # path as EOF/serve_forever teardown — in-flight answers still go
    # out, metrics flush, worker fleets stop.  Later signals during the
    # drain itself are ignored rather than re-raised.
    def _stop_signal(signum, frame):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _stop_signal)
    signal.signal(signal.SIGINT, _stop_signal)
    print(
        f"serving {args.database} "
        f"({len(service.manager.database)} graphs, "
        f"generation {service.manager.generation}"
        f"{', mutable' if args.mutable else ''}"
        f"{f', replicas={args.replicas}' if args.replicas else ''}); "
        f"workers={config.max_concurrency} queue={config.max_queue}",
        file=sys.stderr,
    )
    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        server = serve_tcp(service, host or "127.0.0.1", int(port))
        bound = server.server_address
        print(f"listening on {bound[0]}:{bound[1]}", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
            server.server_close()
            report = service.drain()
            print(f"drained: {report}", file=sys.stderr)
    else:
        report = serve_lines(service, _stdin_lines(), sys.stdout)
        print(f"drained: {report}", file=sys.stderr)
    # stdout is the response stream, so the observability epilogue goes to
    # stderr (drain already flushed the metrics document itself).
    if observation is not None:
        if args.metrics:
            print(f"wrote metrics to {args.metrics}", file=sys.stderr)
        if args.trace:
            observation.report(file=sys.stderr)
        observation.__exit__(None, None, None)
    return 0


def cmd_checkpoint(args) -> int:
    from repro.durability import DurabilityError, checkpoint_offline
    from repro.delta.errors import JournalError

    try:
        report = checkpoint_offline(args.database, args.journal)
    except (DurabilityError, JournalError) as error:
        print(f"checkpoint: {error}", file=sys.stderr)
        return 1
    print(
        f"checkpointed {args.journal}: generation {report['generation']}, "
        f"folded {report['folded_records']} records into {report['base']} "
        f"({report['base_bytes']} bytes, crc32 {report['base_crc32']}) "
        f"in {report['seconds']:.2f}s"
    )
    return 0


def cmd_backup(args) -> int:
    from repro.durability import DurabilityError, create_backup
    from repro.delta.errors import JournalError

    try:
        report = create_backup(
            args.output, database=args.database, journal=args.journal,
        )
    except (DurabilityError, JournalError) as error:
        print(f"backup: {error}", file=sys.stderr)
        return 1
    print(
        f"wrote {report['path']}: {report['files']} files, "
        f"{report['bytes']} bytes ({', '.join(report['roles'])})"
    )
    return 0


def cmd_restore(args) -> int:
    from repro.durability import DurabilityError, restore_backup

    try:
        report = restore_backup(args.backup, args.dest, force=args.force)
    except DurabilityError as error:
        print(f"restore: {error}", file=sys.stderr)
        return 1
    print(
        f"restored {args.backup} -> {report['path']}: "
        f"{report['files']} files ({', '.join(report['roles'])})"
    )
    return 0


def cmd_verify(args) -> int:
    from repro.durability import verify_deployment
    from repro.durability.backup import verify_frame_rows
    from repro.ged import StarDistance

    failures = 0
    reports = [verify_deployment(path) for path in args.paths]
    # A bundle given with its database also gets frame rows recomputed.
    reports.append(verify_frame_rows(args.paths, StarDistance()))
    for report in reports:
        for checked in report["checked"]:
            print(f"ok: {checked}")
        for problem in report["problems"]:
            print(f"CORRUPT: {problem}", file=sys.stderr)
        failures += 0 if report["ok"] else 1
    if failures:
        print(f"verify: {failures} target(s) failed", file=sys.stderr)
        return 1
    print("verify: all checksums match")
    return 0


def cmd_experiment(args) -> int:
    from repro.bench import registry

    if args.all == (args.name is not None):
        print("experiment: provide a driver name or --all", file=sys.stderr)
        return 2
    try:
        entries = (registry.EXPERIMENTS if args.all
                   else [registry.lookup(args.name)])
    except KeyError:
        print(f"unknown experiment {args.name!r}; available:", file=sys.stderr)
        for entry in registry.EXPERIMENTS:
            print(f"  {entry.name}", file=sys.stderr)
        return 2
    runs = [
        (entry.name, dataset) for entry in entries for dataset in entry.runs()
        if args.dataset in (None, dataset) or dataset is None
    ]
    if not runs:
        print(f"experiment: {args.name} runs on "
              f"{', '.join(entries[0].datasets)}, not {args.dataset}",
              file=sys.stderr)
        return 2
    failures = 0
    for name, dataset in runs:
        print(f"--- running {registry.stem(name, dataset)} ---")
        try:
            registry.run_experiment(name, dataset, seed=args.seed)
        except Exception as error:  # keep going; summarize at the end
            print(f"{registry.stem(name, dataset)} FAILED: "
                  f"{type(error).__name__}: {error}", file=sys.stderr)
            failures += 1
    print(f"completed {len(runs) - failures}/{len(runs)} experiments; "
          "tables in results/")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-k representative queries on graph databases "
                    "(SIGMOD'14 reproduction).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("dataset", choices=("dud", "dblp", "amazon", "cascades", "callgraphs"))
    p.add_argument("--num-graphs", type=int, default=500)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = subparsers.add_parser("stats", help="summarize a database file")
    p.add_argument("database")
    p.add_argument("--num-pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_stats)

    p = subparsers.add_parser("build-index", help="build and save an NB-Index")
    p.add_argument("database")
    p.add_argument("--output", required=True)
    p.add_argument("--vantage-points", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write a repro.obs metrics document "
                        "(.prom → Prometheus text, else JSON)")
    p.add_argument("--trace", action="store_true",
                   help="print the counter/span report after the build")
    p.set_defaults(func=cmd_build_index)

    p = subparsers.add_parser(
        "shard-build",
        help="partition the database and build one NB-Index per shard",
    )
    p.add_argument("database")
    p.add_argument("--output", required=True, metavar="DIR",
                   help="bundle directory (manifest.json + shard-NNN.npz)")
    p.add_argument("--shards", type=int, required=True, metavar="S",
                   help="number of shards (1..num_graphs)")
    p.add_argument("--partitioner", choices=("hash", "clustering"),
                   default="hash",
                   help="hash: stateless content hash; clustering: "
                        "farthest-first pivots + nearest-pivot assignment")
    p.add_argument("--vantage-points", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write a repro.obs metrics document "
                        "(.prom → Prometheus text, else JSON)")
    p.add_argument("--trace", action="store_true",
                   help="print the counter/span report after the build")
    p.set_defaults(func=cmd_shard_build)

    p = subparsers.add_parser("query", help="run a top-k representative query")
    p.add_argument("database")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--theta", type=float, default=None,
                   help="distance threshold (default: calibrated)")
    p.add_argument("--quantile", type=float, default=0.75,
                   help="relevance quantile (default: top quartile)")
    p.add_argument("--dims", type=int, nargs="*", default=None,
                   help="feature dims for relevance (default: all)")
    p.add_argument("--method", choices=("nbindex", "greedy"), default="nbindex")
    p.add_argument("--index", default=None, help="prebuilt index (.npz)")
    p.add_argument("--shards", default=None, metavar="MANIFEST",
                   help="shard-bundle manifest.json — run the query through "
                        "the scatter-gather coordinator (bit-identical "
                        "answers, conflicts with --index)")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="mutation journal to replay over the database "
                        "before querying (opens the index through the "
                        "delta layer; needs --index or --shards)")
    p.add_argument("--vantage-points", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                   help="wall-clock budget for exact edit distances; on "
                        "expiry they degrade to upper bounds and the "
                        "footer reports the degradation")
    p.add_argument("--epsilon", type=float, default=0.0, metavar="E",
                   help="approximate mode: relax bound comparisons to "
                        "(1−E)·θ, keeping the (1−1/e−E) guarantee "
                        "(default 0 = exact)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write a repro.obs metrics document "
                        "(.prom → Prometheus text, else JSON)")
    p.add_argument("--trace", action="store_true",
                   help="print the counter/span report after the query")
    p.set_defaults(func=cmd_query)

    p = subparsers.add_parser(
        "serve",
        help="run the long-lived query service (line-JSON on stdin or TCP)",
    )
    p.add_argument("database")
    p.add_argument("--index", default=None, metavar="PATH",
                   help="prebuilt index (.npz); also becomes the hot-reload "
                        "watch target unless --watch overrides it")
    p.add_argument("--shards", default=None, metavar="MANIFEST",
                   help="shard-bundle manifest.json to serve instead of a "
                        "single index; also the hot-reload watch target "
                        "(per-shard reuse on reload) unless --watch is given")
    p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                   help="listen on a TCP socket instead of stdin/stdout "
                        "(use :0 for an ephemeral port)")
    p.add_argument("--concurrency", type=int, default=2,
                   help="worker threads executing queries (default: 2)")
    p.add_argument("--max-queue", type=int, default=16,
                   help="requests allowed to wait before shedding (default: 16)")
    p.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                   help="default per-request budget; queue wait counts "
                        "against it (requests may override via timeout_ms)")
    p.add_argument("--drain-grace", type=float, default=5.0, metavar="S",
                   help="seconds to let in-flight work finish on shutdown")
    p.add_argument("--mutable", action="store_true",
                   help="open the index through the delta layer so the "
                        "service accepts insert/delete/update/compact "
                        "protocol ops (disables hot reload; compaction "
                        "owns index swaps)")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="durable mutation journal (with --mutable): "
                        "existing records replay on startup, new "
                        "mutations append with fsync")
    p.add_argument("--watch", default=None, metavar="PATH",
                   help="index artifact to watch for hot reload")
    p.add_argument("--reload-poll", type=float, default=1.0, metavar="S",
                   help="watch-path polling interval (default: 1s)")
    p.add_argument("--replicas", type=int, default=None, metavar="R",
                   help="with --shards: serve from a supervised process "
                        "cluster of R worker processes, each serving the "
                        "whole bundle (failover, restart)")
    p.add_argument("--crash-log", default=None, metavar="PATH",
                   help="append per-query crash journal entries (JSON lines)")
    p.add_argument("--crash-log-max-bytes", type=int, default=None,
                   metavar="N",
                   help="rotate the crash log once it would exceed N bytes "
                        "(default: 1 MiB; 0 disables rotation)")
    p.add_argument("--crash-log-keep", type=int, default=3, metavar="N",
                   help="rotated crash-log files to keep (default: 3)")
    p.add_argument("--scrub-interval", type=float, default=None, metavar="S",
                   help="run the background scrubber every S seconds, "
                        "re-verifying artifact checksums and rebuilding "
                        "a corrupt shard (default: off; one-shot 'scrub' "
                        "protocol ops always work)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="flush a repro.obs metrics document on drain "
                        "(.prom → Prometheus text, else JSON)")
    p.add_argument("--trace", action="store_true",
                   help="print the counter/span report after drain")
    p.set_defaults(func=cmd_serve)

    p = subparsers.add_parser(
        "checkpoint",
        help="fold a mutation journal into a fresh generation-numbered "
             "base database (the journal shrinks to zero records)",
    )
    p.add_argument("database",
                   help="the original (generation-0) database file the "
                        "journal replays onto")
    p.add_argument("--journal", required=True, metavar="PATH",
                   help="the mutation journal to checkpoint")
    p.set_defaults(func=cmd_checkpoint)

    p = subparsers.add_parser(
        "backup",
        help="capture a crash-consistent, checksummed snapshot of a "
             "deployment's database (or journal + its base) into a fresh "
             "directory; rebuild the index after a restore",
    )
    p.add_argument("output", help="backup directory (must not exist)")
    p.add_argument("--database", default=None, metavar="PATH",
                   help="database JSONL (required unless the journal is "
                        "checkpointed and pins its own base)")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="mutation journal to include (its pinned base "
                        "supersedes --database for generation > 0)")
    p.set_defaults(func=cmd_backup)

    p = subparsers.add_parser(
        "restore",
        help="verify every checksum in a backup, then install it "
             "(atomically into a fresh directory, or --force in place)",
    )
    p.add_argument("backup", help="backup directory written by 'repro backup'")
    p.add_argument("dest", help="destination directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing destination in place "
                        "(per-file atomic replaces, journal last)")
    p.set_defaults(func=cmd_restore)

    p = subparsers.add_parser(
        "verify",
        help="offline checksum audit of any repro artifact: backup dir, "
             "shard bundle, index .npz, journal (+ pinned base), database; "
             "a bundle given with its database .jsonl also has a sample of "
             "its frame rows recomputed",
    )
    p.add_argument("paths", nargs="+", help="artifact path(s) to audit")
    p.set_defaults(func=cmd_verify)

    p = subparsers.add_parser("experiment", help="run a paper experiment driver")
    p.add_argument("name", nargs="?", default=None,
                   help="driver name, e.g. fig2a_disc_growth")
    p.add_argument("--all", action="store_true",
                   help="run every registered experiment on every dataset "
                        "it declares; exits 1 on a broken paper claim")
    p.add_argument("--dataset", default=None,
                   help="only this dataset's runs (default: all declared)")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    obs.maybe_enable_from_env()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
