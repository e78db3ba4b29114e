"""Command-line interface: explore a synthetic personal dataspace.

Usage (module form)::

    python -m repro stats  --scale 0.02
    python -m repro stats  --format prometheus
    python -m repro stats  --watch --interval 2
    python -m repro stats  --shards 4 --format prometheus
    python -m repro stats  --shards 4 --watch --frames 3
    python -m repro query  '//papers//*Vision/*["Franklin"]'
    python -m repro query  '"database tuning"' --explain
    python -m repro query  '"database tuning"' --explain --analyze
    python -m repro query  '"database tuning"' --analyze --shards 2
    python -m repro tables --scale 0.05
    python -m repro serve  --clients 1,4,16 --requests 25
    python -m repro serve  --shards 3 --kill-shard 0
    python -m repro checkpoint /tmp/space --scale 0.02
    python -m repro recover /tmp/space --verify
    python -m repro fsck /tmp/space

Dataspaces are generated in memory, deterministically from
``--scale``/``--seed``, so every invocation is reproducible.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .bench import (
    EvaluationHarness,
    PAPER_QUERIES,
    PAPER_TABLE4,
    format_table,
)
from .core.errors import QuerySyntaxError, StreamingUnsupportedError
from .facade import Dataspace
from .imapsim.latency import no_latency

#: Exit code for a rejected iQL query (argparse itself uses 2).
EXIT_PARSE_ERROR = 3
#: Exit code when ``recover --verify`` finds engine/oracle divergence.
EXIT_VERIFY_FAILED = 4


def _add_dataset_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.02,
                        help="fraction of the paper's dataset (default 0.02)")
    parser.add_argument("--seed", type=int, default=42,
                        help="generator seed (default 42)")


def _build(args: argparse.Namespace) -> Dataspace:
    dataspace = Dataspace.generate(scale=args.scale, seed=args.seed,
                                   imap_latency=no_latency())
    dataspace.sync()
    return dataspace


def _exercise_telemetry(dataspace: Dataspace) -> None:
    """Run the paper's query mix through a short serve session so the
    telemetry snapshot covers every namespace (``query.*``, ``sync.*``,
    ``index.*``, ``service.*``), not just the sync that :func:`_build`
    already performed."""
    with dataspace.serve(workers=2) as service:
        for iql in PAPER_QUERIES.values():
            service.execute(iql, timeout=60.0)


def _render_stats_tables(dataspace: Dataspace,
                         args: argparse.Namespace) -> str:
    report = dataspace.last_sync_report
    assert report is not None
    rows = []
    for authority, source in report.sources.items():
        rows.append([authority, source.views_base,
                     source.views_derived_xml, source.views_derived_latex,
                     source.views_total])
    parts = [format_table(
        ["source", "base", "xml-derived", "latex-derived", "total"],
        rows, title=f"dataspace (scale={args.scale}, seed={args.seed})",
    )]
    sizes = dataspace.index_sizes()
    parts.append(format_table(
        ["structure", "bytes"],
        [[key, int(sizes[key])]
         for key in ("name", "tuple", "content", "group", "catalog",
                     "total", "net_input")],
        title="index sizes",
    ))
    return "\n\n".join(parts)


def _render_fleet_table(supervisor) -> str:
    """One row per shard from the supervisor's merged view: supervision
    state plus the federated ``{shard=N}`` latency series."""
    stats = supervisor.stats()
    rows = []
    for index in range(int(stats["shards"])):
        prefix = f"shard.{index}"
        p99 = stats.get(f"{prefix}.p99_seconds")
        rows.append([
            index, stats[f"{prefix}.state"], stats[f"{prefix}.epoch"],
            stats[f"{prefix}.restarts"], stats[f"{prefix}.inflight"],
            stats.get(f"{prefix}.served", 0),
            p99 * 1000 if p99 is not None else 0.0,
            "stale" if stats.get(f"{prefix}.stale") else "live",
        ])
    return format_table(
        ["shard", "state", "epoch", "restarts", "inflight", "served",
         "p99 [ms]", "export"],
        rows, title=f"fleet ({stats['shards']} shards)",
    )


def _cmd_stats_fleet(args: argparse.Namespace) -> int:
    """Fleet statistics: supervised shard workers, federated registry.

    Spins up ``--shards`` worker processes, drives the paper's query
    mix through the ring (unless ``--no-exercise``), and renders the
    *merged* telemetry — every worker's series under its ``{shard=N}``
    label — plus a per-shard supervision table. ``--watch`` re-runs the
    mix and re-renders each frame (``--frames`` bounds the loop, for
    scripts and tests)."""
    import shutil
    import tempfile

    from . import obs
    from .core.errors import ShardUnavailable
    from .supervise import ShardSupervisor

    directory = tempfile.mkdtemp(prefix="repro-stats-")
    queries = list(PAPER_QUERIES.values())
    # a short export interval so each reply piggybacks fresh deltas;
    # flush_telemetry() then makes the final render complete
    supervisor = ShardSupervisor(
        directory, shards=args.shards, seed=args.seed, scale=args.scale,
        metrics_interval=0.05,
    )

    # Rotating tenants so the rendered export demonstrates the full
    # label composition: {shard=N} from federation, {tenant=...} from
    # admission, side by side with the unlabeled totals.
    tenants = ("acme", "globex", "initech")

    def exercise() -> None:
        for n, iql in enumerate(queries):
            try:
                supervisor.query(iql, key=f"client-{n}", timeout=120.0,
                                 tenant=tenants[n % len(tenants)])
            except ShardUnavailable:
                continue

    def render_once() -> str:
        registry = obs.global_metrics()
        if args.format == "prometheus":
            return registry.render_prometheus()
        if args.format == "json":
            return registry.render_json()
        return _render_fleet_table(supervisor) + "\n\n" + registry.render()

    frames = 0
    try:
        with supervisor:
            while True:
                if not args.no_exercise:
                    exercise()
                supervisor.flush_telemetry()
                if args.watch and sys.stdout.isatty():
                    print("\x1b[2J\x1b[H", end="")  # one-screen refresh
                print(render_once())
                frames += 1
                if not args.watch:
                    break
                if args.frames is not None and frames >= args.frames:
                    break
                print(f"-- watching fleet (every {args.interval:g}s, "
                      f"Ctrl-C to stop)", flush=True)
                time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from . import obs

    if args.shards:
        return _cmd_stats_fleet(args)
    dataspace = Dataspace.generate(scale=args.scale, seed=args.seed,
                                   imap_latency=no_latency())
    dataspace.sync()
    if not args.no_exercise:
        _exercise_telemetry(dataspace)

    def render_once() -> str:
        registry = obs.global_metrics()
        if args.format == "prometheus":
            return registry.render_prometheus()
        if args.format == "json":
            return registry.render_json()
        return (_render_stats_tables(dataspace, args)
                + "\n\n" + registry.render())

    if not args.watch:
        print(render_once())
        return 0
    try:
        while True:
            # each tick applies pending source changes, so the gauges
            # and counters move between frames
            dataspace.refresh()
            print(render_once())
            print(f"-- watching (every {args.interval:g}s, Ctrl-C to stop)",
                  flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_query_sharded(args: argparse.Namespace) -> int:
    """Route one query through supervised shard workers.

    With ``--analyze`` the worker executes under its own collector and
    the supervisor grafts the shipped span tree under its dispatch
    spans — the printed tree covers both processes (ring lookup, pipe
    round-trip, executor-queue wait, then the worker's operators)."""
    import shutil
    import tempfile

    from .supervise import ShardSupervisor

    directory = tempfile.mkdtemp(prefix="repro-query-")
    try:
        with ShardSupervisor(directory, shards=args.shards,
                             seed=args.seed, scale=args.scale) as supervisor:
            try:
                if args.analyze:
                    report = supervisor.explain_analyze(
                        args.iql, limit=args.limit, tenant=args.tenant,
                        timeout=120.0)
                    print(report.render())
                    return 0
                result = supervisor.query(
                    args.iql, limit=args.limit, tenant=args.tenant,
                    timeout=120.0)
            except QuerySyntaxError as error:
                print(f"iql parse error: {error}", file=sys.stderr)
                return EXIT_PARSE_ERROR
            for uri in result.uris[:args.limit]:
                print(uri)
            print(f"-- {result.count} result(s) from shard {result.shard} "
                  f"(epoch {result.epoch}), "
                  f"{result.elapsed_seconds * 1000:.1f} ms")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.shards:
        return _cmd_query_sharded(args)
    dataspace = _build(args)
    try:
        if args.analyze:
            # EXPLAIN ANALYZE: execute under a trace, print the
            # annotated plan tree (per-node actual rows, wall time,
            # estimate), the rewrite log and the substrate counters
            print(dataspace.explain_analyze(args.iql).render())
            return 0
        if args.explain:
            print(dataspace.explain(args.iql))
            return 0
        try:
            # --limit plans into the query, so the engine stops pulling
            # once satisfied; rows print as their batches arrive
            stream = dataspace.query_iter(args.iql, limit=args.limit)
        except StreamingUnsupportedError:
            # joins only — any other execution failure propagates rather
            # than silently re-running the query materialized
            return _print_materialized(dataspace, args)
    except QuerySyntaxError as error:
        print(f"iql parse error: {error}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    started = time.perf_counter()
    shown = 0
    with stream:
        for uri in stream:
            record = dataspace.rvm.catalog.get(uri)
            label = (f"  ({record.name})"
                     if record is not None and record.name else "")
            print(f"{uri}{label}")
            shown += 1
    elapsed = time.perf_counter() - started
    # the limit is planned into the query, so the total result count is
    # unknown here — report only what streamed out
    print(f"-- {shown} result(s), "
          f"{elapsed * 1000:.1f} ms, "
          f"{stream.expanded_views} views expanded")
    if stream.degradation.is_degraded:
        print(f"-- {stream.degradation.summary()}", file=sys.stderr)
    return 0


def _print_materialized(dataspace: Dataspace,
                        args: argparse.Namespace) -> int:
    """Joins have no streaming plan shape: materialize, then print."""
    result = dataspace.query(args.iql)
    if result.pairs:
        for pair in result.pairs[:args.limit]:
            print(f"{pair.left.uri}  <->  {pair.right.uri}")
    else:
        for hit in result.hits[:args.limit]:
            label = f"  ({hit.name})" if hit.name else ""
            print(f"{hit.uri}{label}")
    shown = min(len(result), args.limit)
    print(f"-- {len(result)} result(s) ({shown} shown), "
          f"{result.elapsed_seconds * 1000:.1f} ms, "
          f"{result.expanded_views} views expanded")
    if result.is_degraded:
        print(f"-- {result.degradation.summary()}", file=sys.stderr)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    harness = EvaluationHarness(scale=args.scale, seed=args.seed)
    harness.ensure_synced()

    table2 = harness.table2()
    print(format_table(
        ["source", "base", "xml", "latex", "total"],
        [[name, row["base"], row["xml"], row["latex"], row["total"]]
         for name, row in table2.items()],
        title="Table 2 — dataset characteristics",
    ))
    print()

    breakdown = harness.figure5()
    print(format_table(
        ["source", "catalog [s]", "indexing [s]", "access [s]", "total [s]"],
        [[name, row["catalog"], row["indexing"], row["access"],
          row["total"]] for name, row in breakdown.items()],
        title="Figure 5 — indexing time breakdown",
    ))
    print()

    sizes = harness.table3()
    mb = 1024 * 1024
    print(format_table(
        ["structure", "MB"],
        [[key, sizes[key] / mb]
         for key in ("net_input", "name", "tuple", "content", "group",
                     "catalog", "total")],
        title="Table 3 — index sizes",
    ))
    print()

    measurements = harness.run_queries(warm_runs=2)
    print(format_table(
        ["query", "paper #", "measured #", "warm [ms]"],
        [[qid, PAPER_TABLE4[qid], m.results, m.warm_seconds * 1000]
         for qid, m in measurements.items()],
        title="Table 4 / Figure 6 — queries",
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Closed-loop load against the concurrent query service."""
    from .service import run_closed_loop

    if args.shards:
        return _cmd_serve_sharded(args)
    dataspace = _build(args)
    queries = list(PAPER_QUERIES.values())
    deadline = args.deadline_ms / 1000.0 if args.deadline_ms else None
    try:
        levels = [int(level) for level in args.clients.split(",")]
    except ValueError:
        print(f"invalid --clients list: {args.clients!r}", file=sys.stderr)
        return 2
    rows = []
    service = None
    for clients in levels:
        # a fresh service per level: each row starts from a cold cache
        service = dataspace.serve(
            workers=args.workers, max_queue_depth=args.queue_depth,
            cache_results=not args.no_cache, trace_queries=args.trace,
        )
        with service:
            report = run_closed_loop(
                service, queries, clients=clients,
                requests_per_client=args.requests,
                use_cache=not args.no_cache, deadline=deadline,
            )
        latency = report.latency_snapshot()
        rows.append([
            clients, report.succeeded, report.rejected, report.failed,
            report.throughput, latency.p50 * 1000, latency.p95 * 1000,
            latency.p99 * 1000,
        ])
    print(format_table(
        ["clients", "ok", "rejected", "failed", "q/s",
         "p50 [ms]", "p95 [ms]", "p99 [ms]"],
        rows,
        title=(f"closed-loop service workload (workers={args.workers}, "
               f"cache={'off' if args.no_cache else 'on'})"),
    ))
    if service is not None:
        print()
        print(service.metrics.render())
    return 0


def _cmd_serve_sharded(args: argparse.Namespace) -> int:
    """Drive the supervised multi-process sharded service.

    Requests route by a synthetic client key over the consistent-hash
    ring; ``--kill-shard`` SIGKILLs one worker mid-workload so the
    supervised failover (fail-fast, recovery, re-dispatch) is visible
    from the command line.
    """
    import shutil
    import statistics
    import tempfile

    from .core.errors import ShardUnavailable
    from .supervise import ShardSupervisor

    directory = args.directory or tempfile.mkdtemp(prefix="repro-shards-")
    cleanup = args.directory is None
    queries = list(PAPER_QUERIES.values())
    supervisor = ShardSupervisor(
        directory, shards=args.shards, seed=args.seed, scale=args.scale,
    )
    total = args.requests * max(4, args.shards)
    kill_at = (args.kill_after if args.kill_after is not None
               else total // 3)
    latencies: dict[int, list] = {i: [] for i in range(args.shards)}
    served = unavailable = 0
    try:
        with supervisor:
            print(f"supervisor up: {args.shards} shard worker(s) under "
                  f"{directory}")
            for n in range(total):
                if args.kill_shard is not None and n == kill_at:
                    pid = supervisor.kill_shard(args.kill_shard)
                    print(f"-- SIGKILL shard {args.kill_shard} "
                          f"(pid {pid}) at request {n}")
                iql = queries[n % len(queries)]
                key = f"client-{n % (args.shards * 4)}"
                started = time.perf_counter()
                try:
                    result = supervisor.query(iql, key=key, timeout=120.0)
                except ShardUnavailable as error:
                    unavailable += 1
                    if args.kill_shard is None:
                        print(f"shard {error.shard} unavailable: {error}",
                              file=sys.stderr)
                    continue
                served += 1
                latencies[result.shard].append(
                    time.perf_counter() - started)
            if args.kill_shard is not None:
                recovered = supervisor.wait_until_up(args.kill_shard,
                                                     timeout=120.0)
                print(f"-- shard {args.kill_shard} "
                      f"{'recovered' if recovered else 'DID NOT recover'}")
            stats = supervisor.stats()
            rows = []
            for index in range(args.shards):
                times = latencies[index]
                rows.append([
                    index, stats[f"shard.{index}.state"],
                    stats[f"shard.{index}.epoch"],
                    stats[f"shard.{index}.restarts"],
                    stats[f"shard.{index}.views"], len(times),
                    statistics.median(times) * 1000 if times else 0.0,
                    max(times) * 1000 if times else 0.0,
                ])
            print(format_table(
                ["shard", "state", "epoch", "restarts", "views",
                 "served", "p50 [ms]", "max [ms]"],
                rows,
                title=(f"supervised shards (requests={total}, "
                       f"served={served}, fail-fast={unavailable})"),
            ))
    finally:
        if cleanup:
            shutil.rmtree(directory, ignore_errors=True)
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """Make (or reopen) a durable dataspace and checkpoint it."""
    from .durability import load_config

    if load_config(args.directory) is not None:
        # an existing durability directory: recover, then checkpoint it
        dataspace = Dataspace.open(args.directory)
        assert dataspace.last_recovery is not None
        print(dataspace.last_recovery.summary())
    else:
        dataspace = Dataspace.generate(scale=args.scale, seed=args.seed,
                                       imap_latency=no_latency(),
                                       durability=args.directory)
        report = dataspace.sync()
        print(f"synced {report.views_total} views into {args.directory}")
    with dataspace:
        info = dataspace.checkpoint()
    print(f"checkpoint at lsn {info.lsn}: {info.path.name}, "
          f"{info.segments_truncated} WAL segment(s) truncated, "
          f"{info.seconds * 1000:.1f} ms")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Recover a durability directory and optionally verify the engine."""
    from .durability import verify_engine_matches_oracle

    with Dataspace.open(args.directory) as dataspace:
        assert dataspace.last_recovery is not None
        print(dataspace.last_recovery.summary())
        if not args.verify:
            return 0
        report = verify_engine_matches_oracle(
            dataspace, seed=args.verify_seed, count=args.verify_count)
    print(report.summary())
    if not report.ok:
        for iql, diff in report.mismatches:
            print(f"  MISMATCH {iql}: {diff}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    """Consistency-check a durability directory: recover it into memory
    and prove engine ≡ oracle on the recovered state.

    This is ``recover --verify`` as a first-class check: exit 0 when
    consistent, :data:`EXIT_VERIFY_FAILED` on divergence — usable from
    cron or a post-crash runbook without mutating the directory.
    """
    from .durability import load_config, verify_engine_matches_oracle

    if load_config(args.directory) is None:
        print(f"fsck: {args.directory} is not a durability directory "
              f"(no config.json)", file=sys.stderr)
        return 2
    with Dataspace.open(args.directory, durable=False) as dataspace:
        assert dataspace.last_recovery is not None
        print(dataspace.last_recovery.summary())
        report = verify_engine_matches_oracle(
            dataspace, seed=args.verify_seed, count=args.verify_count)
    print(report.summary())
    if not report.ok:
        for iql, diff in report.mismatches:
            print(f"  MISMATCH {iql}: {diff}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="iDM personal dataspace reproduction (VLDB 2006)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser(
        "stats", help="dataset, index and telemetry statistics"
    )
    stats.add_argument("--format", choices=("table", "json", "prometheus"),
                       default="table",
                       help="output format (default table; json and "
                            "prometheus print the telemetry snapshot)")
    stats.add_argument("--watch", action="store_true",
                       help="re-render every --interval seconds until "
                            "interrupted")
    stats.add_argument("--interval", type=float, default=2.0,
                       help="refresh period for --watch (default 2s)")
    stats.add_argument("--no-exercise", action="store_true",
                       help="skip the warm-up query mix (telemetry then "
                            "covers only the sync)")
    stats.add_argument("--shards", type=int, default=0,
                       help="report on a fleet of N supervised shard "
                            "worker processes (federated {shard=N} "
                            "telemetry; default 0: single-process)")
    stats.add_argument("--frames", type=int, default=None,
                       help="stop --watch after N frames (--shards only; "
                            "default: until Ctrl-C)")
    _add_dataset_options(stats)
    stats.set_defaults(handler=_cmd_stats)

    query = commands.add_parser("query", help="run one iQL query")
    query.add_argument("iql", help="the iQL query text")
    query.add_argument("--limit", type=int, default=20,
                       help="max results (default 20; planned into the "
                            "query, so execution stops early)")
    query.add_argument("--explain", action="store_true",
                       help="print the physical plan instead of executing")
    query.add_argument("--analyze", action="store_true",
                       help="execute under a trace and print the annotated "
                            "plan (per-node rows, wall time, estimate); "
                            "implies --explain")
    query.add_argument("--shards", type=int, default=0,
                       help="route through N supervised shard worker "
                            "processes; with --analyze the printed tree "
                            "is stitched across both processes "
                            "(default 0: in-process)")
    query.add_argument("--tenant", default=None,
                       help="tenant label stamped onto the query's "
                            "telemetry (--shards only)")
    _add_dataset_options(query)
    query.set_defaults(handler=_cmd_query)

    tables = commands.add_parser(
        "tables", help="regenerate the paper's evaluation tables"
    )
    _add_dataset_options(tables)
    tables.set_defaults(handler=_cmd_tables)

    serve = commands.add_parser(
        "serve", help="drive the concurrent query service (closed loop)"
    )
    serve.add_argument("--clients", default="1,4",
                       help="comma-separated concurrency levels "
                            "(default 1,4)")
    serve.add_argument("--requests", type=int, default=25,
                       help="requests per client (default 25)")
    serve.add_argument("--workers", type=int, default=4,
                       help="service worker threads (default 4)")
    serve.add_argument("--queue-depth", type=int, default=32,
                       help="admission queue depth (default 32)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-query deadline in milliseconds")
    serve.add_argument("--trace", action="store_true",
                       help="trace every executed query and fold "
                            "per-operator aggregates into the metrics "
                            "report")
    serve.add_argument("--shards", type=int, default=0,
                       help="serve from N supervised shard worker "
                            "processes instead of one in-process pool "
                            "(default 0: single-process)")
    serve.add_argument("--directory", default=None,
                       help="parent directory for the shard durability "
                            "directories (--shards only; default: a "
                            "temp dir, removed afterwards)")
    serve.add_argument("--kill-shard", type=int, default=None,
                       help="SIGKILL this shard's worker mid-workload "
                            "to demo supervised failover (--shards "
                            "only)")
    serve.add_argument("--kill-after", type=int, default=None,
                       help="request count at which --kill-shard fires "
                            "(default: a third of the workload)")
    _add_dataset_options(serve)
    serve.set_defaults(handler=_cmd_serve)

    checkpoint = commands.add_parser(
        "checkpoint", help="checkpoint a durable dataspace (snapshot + "
                           "truncate the applied WAL prefix)"
    )
    checkpoint.add_argument("directory",
                            help="durability directory (created and synced "
                                 "from --scale/--seed when empty)")
    _add_dataset_options(checkpoint)
    checkpoint.set_defaults(handler=_cmd_checkpoint)

    recover = commands.add_parser(
        "recover", help="recover a durability directory (latest checkpoint "
                        "+ WAL tail) and report what came back"
    )
    recover.add_argument("directory", help="durability directory")
    recover.add_argument("--verify", action="store_true",
                         help="check the batched engine against the "
                              "reference oracle on the recovered state")
    recover.add_argument("--verify-seed", type=int, default=0,
                         help="query-generator seed for --verify")
    recover.add_argument("--verify-count", type=int, default=40,
                         help="generated queries for --verify (default 40)")
    recover.set_defaults(handler=_cmd_recover)

    fsck = commands.add_parser(
        "fsck", help="consistency-check a durability directory "
                     "(recover in memory, prove engine ≡ oracle; "
                     "exits 4 on divergence)"
    )
    fsck.add_argument("directory", help="durability directory")
    fsck.add_argument("--verify-seed", type=int, default=0,
                      help="query-generator seed (default 0)")
    fsck.add_argument("--verify-count", type=int, default=40,
                      help="generated queries to check (default 40)")
    fsck.set_defaults(handler=_cmd_fsck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
