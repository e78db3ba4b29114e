"""One shard worker: a subprocess owning a durability-backed dataspace.

Run by the supervisor as::

    python -m repro.supervise.worker <directory> --shard 2 --epoch 5 ...

On start the worker either *recovers* its shard — the durability
directory already has a ``config.json``, so ``Dataspace.open`` loads
the latest checkpoint and replays the WAL tail — or, on the very first
spawn, generates the shard's synthetic dataspace (seeded per shard),
syncs it under ``fsync="always"`` and cuts an initial checkpoint so
every later restart is a fast recovery rather than a re-sync. It then
announces itself with a ``ready`` frame and serves requests from stdin.

Two threads split the serving loop so a long query never starves
liveness: the main thread reads frames and answers control operations
(``ping``, ``crash``, ``shutdown``) immediately, while queries are
handed to a single executor thread — per-shard execution stays serial
(the single-threaded index structures need no lock), concurrency comes
from the supervisor running many shards.

Every reply frame carries the worker's ``--epoch``, the incarnation
number the supervisor fences replies with. The ``crash`` op and
``--crash-after-queries N`` deliver a real ``SIGKILL`` to this process
(the :mod:`repro.durability.crashchild` pattern): no flush, no atexit —
exactly the failure the supervisor exists to contain.

The worker is also the fleet's telemetry origin. A query frame with
``"trace": true`` executes under a :class:`~repro.trace.TraceCollector`
and the reply carries the span tree in compact wire form (plus the
substrate counters and the executor-queue wait), which the supervisor
grafts under its own dispatch span — one stitched EXPLAIN ANALYZE
across both processes. Independently, every reply may piggyback a
``metrics`` delta export of this process's registry and any pending
``events`` (severity >= warning) — see :mod:`repro.obs.federation`; the
supervisor merges them under ``{shard=N}`` labels. Piggybacking rides
existing replies (heartbeat pongs guarantee flow while idle), so
federation adds no frames of its own.
"""

from __future__ import annotations

import argparse
import os
import queue
import signal
import sys
import threading
import time


def _sigkill_self() -> None:  # pragma: no cover - the process dies here
    os.kill(os.getpid(), signal.SIGKILL)


class ShardWorker:
    """The serving loop around one shard's dataspace."""

    def __init__(self, dataspace, *, shard: int, epoch: int,
                 recovered: bool, crash_after_queries: int | None = None,
                 stdin=None, stdout=None,
                 metrics_interval: float | None = 1.0):
        self.dataspace = dataspace
        self.shard = shard
        self.epoch = epoch
        self.recovered = recovered
        self.crash_after_queries = crash_after_queries
        self.stdin = stdin if stdin is not None else sys.stdin.buffer
        self.stdout = stdout if stdout is not None else sys.stdout.buffer
        self.queries_seen = 0
        self.queries_served = 0
        self._write_lock = threading.Lock()
        self._work: queue.Queue = queue.Queue()
        self._stopping = threading.Event()
        #: metrics/event piggybacking (None / <= 0 disables federation);
        #: a fresh exporter per process is what makes counter deltas
        #: crash-safe — see repro.obs.federation
        self.metrics_interval = metrics_interval
        self._exporter = None
        self._event_buffer = None
        self._last_export = 0.0
        if metrics_interval is not None and metrics_interval > 0:
            from .. import obs
            from ..obs.federation import ForwardingEventBuffer, RegistryExporter
            self._exporter = RegistryExporter(obs.global_metrics())
            self._event_buffer = ForwardingEventBuffer()
            self._event_buffer.attach(obs.global_events())

    # -- frames --------------------------------------------------------------

    def _send(self, payload: dict) -> None:
        from .wire import write_frame
        payload.setdefault("epoch", self.epoch)
        with self._write_lock:
            write_frame(self.stdout, payload)

    def _attach_observability(self, payload: dict, *,
                              force: bool = False) -> None:
        """Piggyback a metrics delta + pending events on an outgoing
        reply when the export interval elapsed (or on ``force``)."""
        if self._exporter is None:
            return
        now = time.monotonic()
        if not force and now - self._last_export < self.metrics_interval:
            return
        self._last_export = now
        export = self._exporter.export()
        if export is not None:
            payload["metrics"] = export
        events = self._event_buffer.drain()
        if events:
            payload["events"] = events

    def _reply_ok(self, request: dict, **fields) -> None:
        payload = {"op": "reply", "id": request.get("id"),
                   "ok": True, **fields}
        self._attach_observability(payload)
        self._send(payload)

    def _reply_error(self, request: dict, error: BaseException) -> None:
        payload = {"op": "reply", "id": request.get("id"), "ok": False,
                   "error": type(error).__name__, "message": str(error)}
        self._attach_observability(payload)
        self._send(payload)

    # -- the executor thread (queries, checkpoints, verification) -----------

    def _executor_loop(self) -> None:
        while True:
            request = self._work.get()
            if request is None:
                return
            try:
                self._execute(request)
            except BaseException as error:  # noqa: BLE001 - reply, keep serving
                self._reply_error(request, error)

    def _execute(self, request: dict) -> None:
        op = request["op"]
        if op == "query":
            self._execute_query(request)
        elif op == "checkpoint":
            info = self.dataspace.checkpoint()
            self._reply_ok(request, lsn=info.lsn,
                           segments_truncated=info.segments_truncated)
        elif op == "verify":
            from ..durability import verify_engine_matches_oracle
            report = verify_engine_matches_oracle(
                self.dataspace, seed=request.get("seed", 0),
                count=request.get("count", 25),
            )
            self._reply_ok(request, checked=report.checked,
                           verify_ok=report.ok,
                           mismatches=len(report.mismatches))
        elif op == "stats":
            self._reply_ok(request, views=self.dataspace.view_count,
                           served=self.queries_served, pid=os.getpid(),
                           shard=self.shard)
        else:
            self._reply_error(request,
                              ValueError(f"unknown operation {op!r}"))

    def _execute_query(self, request: dict) -> None:
        """One routed query: traced when the frame asks for it, with
        worker-side ``service.*`` accounting so the federated fleet
        snapshot carries serving metrics from every shard."""
        from .. import obs

        queue_wait = None
        enqueued = request.get("_enqueued")
        if enqueued is not None:
            queue_wait = time.perf_counter() - enqueued
        tenant = request.get("tenant")
        trace = None
        if request.get("trace"):
            from ..trace import TraceCollector
            trace = TraceCollector()
        if not self.dataspace._synced:
            self.dataspace.sync()
        processor = self.dataspace.processor
        started = time.perf_counter()
        result = processor.execute_prepared(
            processor.prepare(request["iql"]), limit=request.get("limit"),
            trace=trace, tenant=tenant,
        )
        elapsed = time.perf_counter() - started
        self.queries_served += 1
        obs.increment("service.queries.served")
        obs.observe("service.latency.execute_seconds", elapsed)
        if queue_wait is not None:
            obs.observe("service.latency.queue_seconds", queue_wait)
            obs.observe("service.latency.total_seconds",
                        queue_wait + elapsed)
        if tenant:
            obs.increment("service.queries.served",
                          labels={"tenant": tenant})
            obs.observe("service.latency.execute_seconds", elapsed,
                        labels={"tenant": tenant})
        extra: dict = {}
        if trace is not None:
            from ..trace import span_to_wire
            extra["spans"] = [span_to_wire(root) for root in trace.roots]
            if trace.counters:
                extra["counters"] = dict(trace.counters)
        if queue_wait is not None:
            extra["queue_wait"] = queue_wait
        self._reply_ok(
            request, uris=result.uris(), count=len(result),
            elapsed=elapsed, degraded=bool(result.is_degraded), **extra,
        )

    # -- the main loop (reads frames, keeps liveness) ------------------------

    def serve(self) -> int:
        executor = threading.Thread(target=self._executor_loop,
                                    name="shard-executor", daemon=True)
        executor.start()
        ready = {"op": "ready", "shard": self.shard,
                 "pid": os.getpid(),
                 "views": self.dataspace.view_count,
                 "recovered": self.recovered}
        # force an export on ready: the generation/recovery metrics ship
        # immediately instead of waiting out the first interval
        self._attach_observability(ready, force=True)
        self._send(ready)
        from ..core.errors import WireError
        from .wire import read_frame
        try:
            while True:
                try:
                    request = read_frame(self.stdin)
                except WireError:
                    break  # the control pipe is torn: nothing to serve
                if request is None:
                    break  # supervisor closed our stdin (or died)
                op = request.get("op")
                if op == "ping":
                    self._reply_ok(request, pong=True,
                                   views=self.dataspace.view_count)
                elif op == "crash":
                    _sigkill_self()
                elif op == "shutdown":
                    self._reply_ok(request, stopped=True)
                    break
                elif op == "query":
                    self.queries_seen += 1
                    if (self.crash_after_queries is not None
                            and self.queries_seen > self.crash_after_queries):
                        # die with the request unanswered: the supervisor
                        # must re-dispatch it exactly once after recovery
                        _sigkill_self()
                    # stamp the hand-off so the executor can report how
                    # long the query sat in the worker's queue
                    request["_enqueued"] = time.perf_counter()
                    self._work.put(request)
                else:
                    self._work.put(request)
        finally:
            self._work.put(None)
            executor.join(timeout=30.0)
            self.dataspace.close()
        return 0


def open_or_generate(directory: str, *, seed: int, scale: float | None):
    """The worker's dataspace: recover if the directory has history,
    generate + sync + checkpoint on the first spawn."""
    from ..dataset import TINY_PROFILE
    from ..durability import DurabilityConfig, load_config
    from ..facade import Dataspace
    from ..imapsim.latency import no_latency

    if load_config(directory) is not None:
        dataspace = Dataspace.open(directory)
        return dataspace, True
    config = DurabilityConfig(directory=directory, fsync="always")
    if scale is not None:
        dataspace = Dataspace.generate(scale=scale, seed=seed,
                                       imap_latency=no_latency(),
                                       durability=config)
    else:
        dataspace = Dataspace.generate(profile=TINY_PROFILE, seed=seed,
                                       imap_latency=no_latency(),
                                       durability=config)
    dataspace.sync()
    # restarts recover from this checkpoint instead of replaying the
    # whole initial-scan WAL (the bench_coldstart advantage, per shard)
    dataspace.checkpoint()
    return dataspace, False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.supervise.worker")
    parser.add_argument("directory", help="this shard's durability directory")
    parser.add_argument("--shard", type=int, default=0)
    parser.add_argument("--epoch", type=int, default=0,
                        help="incarnation number (the fencing token)")
    parser.add_argument("--seed", type=int, default=42,
                        help="dataset generator seed for the first spawn")
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale (default: the tiny profile)")
    parser.add_argument("--crash-after-queries", type=int, default=None,
                        help="SIGKILL self when query N+1 arrives, before "
                             "replying (chaos hook)")
    parser.add_argument("--metrics-interval", type=float, default=1.0,
                        help="min seconds between piggybacked metric "
                             "exports (<= 0 disables federation)")
    args = parser.parse_args(argv)

    dataspace, recovered = open_or_generate(
        args.directory, seed=args.seed, scale=args.scale
    )
    worker = ShardWorker(
        dataspace, shard=args.shard, epoch=args.epoch, recovered=recovered,
        crash_after_queries=args.crash_after_queries,
        metrics_interval=args.metrics_interval,
    )
    return worker.serve()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
