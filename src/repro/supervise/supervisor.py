"""The shard supervisor: crash-contained workers, supervised failover.

:class:`ShardSupervisor` turns the one-process serving story into a
tree of processes: each shard is a subprocess
(:mod:`repro.supervise.worker`) owning a durability-backed
:class:`~repro.facade.Dataspace` under its own directory, and the
parent routes requests to shards by consistent hashing
(:class:`~repro.supervise.router.HashRing`), watches for worker death,
and restarts dead workers through ``Dataspace.open`` recovery.

The failure contract, in order of the failover timeline:

* **containment** — a SIGKILL, poison query, or OOM in one worker
  cannot touch the other shards: they are separate processes, and the
  supervisor keeps routing to them throughout;
* **detection** — death is noticed the moment the worker's stdout hits
  EOF (a dead process closes its pipes), backstopped by a heartbeat
  ping and ``Popen.wait`` reaping;
* **fencing** — every spawn bumps the shard's *epoch*; the worker
  stamps each reply with the epoch it was started under, and the
  supervisor discards any frame from a stale epoch, so a reply
  buffered by a dead incarnation can never race its re-dispatched
  duplicate (no double replies, ever);
* **exactly-once re-dispatch** — queries that were in flight on the
  dead incarnation (written, unanswered) are parked and re-sent *once*
  after recovery; queries are read-only and idempotent, so the second
  execution is safe, and a second crash fails them with
  :class:`~repro.core.errors.ShardUnavailable` instead of looping;
* **fail-fast during recovery** — new requests for a recovering shard
  get an immediate typed :class:`ShardUnavailable` (with
  ``retry_after`` when the breaker knows it) instead of queueing behind
  an absent worker;
* **bounded restart** — restarts back off exponentially (seeded
  jitter), and a per-shard :class:`~repro.supervise.policy.CircuitBreaker`
  opens after repeated crash loops, degrading the shard to fail-fast
  until the cool-down admits a half-open restart probe.

Locking discipline: each shard has a *state* lock (pending table,
epoch, lifecycle) and a *write* lock (frame writes to the worker's
stdin). A blocking pipe write is never performed under the state lock —
otherwise a full pipe could wedge the reader thread (which needs the
state lock to resolve replies) into a three-way deadlock with a busy
worker.

Telemetry lands in ``repro.obs`` under ``supervise.*``:
``supervise.shard.restarts``, per-shard ``epoch``/``inflight`` gauges,
breaker-state gauges, fenced-reply and re-dispatch counters, and the
``supervise.failover_seconds`` histogram (death detected → ready
again).

The supervisor is also the fleet's observability root (DESIGN.md §4k):

* **metrics federation** — workers piggyback delta exports of their
  own registries on reply frames (:mod:`repro.obs.federation`); the
  supervisor merges each into the process-global registry under
  ``{shard=N}`` labels, so one ``repro stats`` scrape covers every
  worker. ``supervise.obs.*`` meta-metrics count the merges, and the
  ``supervise.obs.stale{shard=N}`` gauge flips to 1 between a worker's
  death and its successor's first export.
* **event forwarding** — worker events at warning or above ride the
  same frames and re-emit into the supervisor's event log tagged with
  their shard, so a failover reads as one timeline (``shard.died`` →
  ``shard.respawn`` → ``shard.recovered``) in ``Dataspace.events()``.
* **trace stitching** — a query dispatched with ``trace`` runs under a
  worker-side collector; the reply carries the span tree in wire form,
  and the supervisor grafts it under its own dispatch spans (ring
  lookup, per-incarnation dispatch, worker-queue wait), so EXPLAIN
  ANALYZE renders one tree across both processes — including both
  incarnations of a re-dispatched query, with fenced stale replies
  reduced to a marker (their spans are never adopted).
"""

from __future__ import annotations

import enum
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..core import errors as _errors
from ..core.errors import (
    ServiceClosed,
    ServiceError,
    ShardUnavailable,
    WireError,
)
from .policy import BreakerState, CircuitBreaker, RetryPolicy
from .router import HashRing
from .wire import read_frame, write_frame

#: numeric breaker-state encoding for the ``supervise.breaker.*`` gauges
_BREAKER_CODES = {
    BreakerState.CLOSED: 0,
    BreakerState.OPEN: 1,
    BreakerState.HALF_OPEN: 2,
}


class ShardState(enum.Enum):
    STARTING = "starting"      # spawned, waiting for the ready frame
    UP = "up"                  # serving
    RECOVERING = "recovering"  # dead, restart scheduled (backoff)
    BROKEN = "broken"          # crash-looping, breaker open: fail fast
    STOPPING = "stopping"      # close() in progress
    STOPPED = "stopped"


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables for the supervision loop."""

    #: dataset generator seed; shard ``i`` uses ``seed + i``
    seed: int = 42
    #: dataset scale for first spawns (None: the tiny profile)
    scale: float | None = None
    #: virtual nodes per shard on the hash ring
    ring_replicas: int = 64
    #: monitor tick (restart scheduling, heartbeats)
    tick_seconds: float = 0.02
    #: ping a quiet UP shard this often
    heartbeat_interval: float = 0.5
    #: a shard silent this long (no frame, ping unanswered) is killed
    heartbeat_timeout: float = 30.0
    #: restart backoff: delay before restart n is
    #: ``base * multiplier**(n-1)`` capped at max, plus seeded jitter
    restart_backoff: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        backoff_base=0.05, backoff_multiplier=2.0, backoff_max=2.0,
        jitter=0.5,
    ))
    #: consecutive crashes (without an intervening ready) that open the
    #: shard's restart breaker
    breaker_failure_threshold: int = 5
    #: breaker cool-down before a half-open restart probe
    breaker_cooldown_seconds: float = 5.0
    #: how long start()/restarts may wait for a worker's ready frame
    ready_timeout: float = 180.0
    #: jitter seed (chaos runs stay reproducible)
    jitter_seed: int = 0
    #: extra argv appended to every worker spawn (chaos hooks)
    worker_extra_args: tuple = ()
    #: merge worker metric/event exports into the global registry
    federate_metrics: bool = True
    #: min seconds between a worker's piggybacked metric exports
    metrics_interval: float = 1.0
    #: rotate a shard's ``worker.log`` at spawn once it exceeds this
    #: many bytes (<= 0 disables rotation)
    log_max_bytes: int = 1 << 20
    #: rotated generations kept (``worker.log.1`` .. ``.N``)
    log_keep: int = 3


class PendingCall:
    """One request written to a shard: a minimal future with fencing
    metadata (the epoch it was dispatched under, whether it has already
    been re-dispatched once)."""

    def __init__(self, call_id: int, op: str, payload: dict, shard: int):
        self.id = call_id
        self.op = op
        self.payload = payload
        self.shard = shard
        self.epoch = -1           # set at each (re-)dispatch
        self.redispatched = False
        #: per-incarnation dispatch records (kept only for traced
        #: calls): ``{"epoch", "started", "ended", "status", "spans",
        #: "counters", "queue_wait"}`` — one entry per dispatch, so a
        #: re-dispatched query carries both incarnations' stories
        self.dispatches: list[dict] = []
        #: stale (epoch-fenced) replies whose id matched this call —
        #: rendered as a fence marker; their spans are never adopted
        self.fenced = 0
        self._done = threading.Event()
        self._reply: dict | None = None
        self._error: BaseException | None = None
        self._resolved = False    # guards against any double resolution

    @property
    def traced(self) -> bool:
        return bool(self.payload.get("trace"))

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> dict:
        """Block for the reply frame's fields; raises typed errors."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"shard {self.shard} did not answer {self.op} call "
                f"{self.id} within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._reply is not None
        return self._reply

    # -- supervisor side -----------------------------------------------------

    def _resolve(self, frame: dict) -> bool:
        """Resolve from a reply frame; False if already resolved (the
        exactly-once guard — callers count these as protocol bugs)."""
        if self._resolved:
            return False
        self._resolved = True
        if self.dispatches:
            record = self.dispatches[-1]
            record["ended"] = time.perf_counter()
            record["status"] = "ok" if frame.get("ok", False) else "error"
            record["spans"] = frame.get("spans")
            record["counters"] = frame.get("counters")
            record["queue_wait"] = frame.get("queue_wait")
        if frame.get("ok", False):
            self._reply = frame
        else:
            self._error = _typed_error(frame)
        self._done.set()
        return True

    def _fail(self, error: BaseException) -> None:
        if self._resolved:
            return
        self._resolved = True
        self._error = error
        self._done.set()


def _typed_error(frame: dict) -> BaseException:
    """Rehydrate a worker-side error by its exception name."""
    name = frame.get("error", "ServiceError")
    message = frame.get("message", "worker call failed")
    candidate = getattr(_errors, name, None)
    if (isinstance(candidate, type)
            and issubclass(candidate, _errors.IdmError)):
        try:
            return candidate(message)
        except TypeError:  # exotic constructor signature
            pass
    return ServiceError(f"{name}: {message}")


@dataclass
class FleetExplainReport:
    """A stitched cross-process EXPLAIN ANALYZE: the routed query's
    :class:`ShardResult` plus the supervisor-side collector holding the
    grafted tree (``ShardedQuery`` → ``RingLookup`` / per-incarnation
    ``Dispatch`` → ``WorkerQueue`` + the worker's own operator spans)."""

    result: "ShardResult"
    trace: object  # TraceCollector (kept untyped: no import cycle)

    def render(self, *, redact_timing: bool = False) -> str:
        from ..trace import render_spans
        lines = [render_spans(self.trace.roots,
                              redact_timing=redact_timing)]
        if self.trace.counters:
            lines.append("counters:")
            for name in sorted(self.trace.counters):
                lines.append(f"  {name}: {self.trace.counters[name]}")
        elapsed = ("-" if redact_timing
                   else f"{self.result.elapsed_seconds * 1000:.2f}ms")
        lines.append(
            f"-- {self.result.count} result(s) from shard "
            f"{self.result.shard} (epoch {self.result.epoch}) "
            f"in {elapsed}"
        )
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


@dataclass
class ShardResult:
    """One routed query's answer."""

    shard: int
    epoch: int
    uris: list
    count: int
    elapsed_seconds: float
    degraded: bool = False
    redispatched: bool = False

    def __len__(self) -> int:
        return self.count


class _Shard:
    """Supervisor-side state for one shard.

    ``lock`` guards lifecycle state and the pending table; ``write_lock``
    serializes frame writes to the worker's stdin. Never write a frame
    while holding ``lock`` (see the module docstring).
    """

    def __init__(self, index: int, directory: Path,
                 breaker: CircuitBreaker):
        self.index = index
        self.directory = directory
        self.lock = threading.RLock()
        self.write_lock = threading.Lock()
        self.state = ShardState.STOPPED
        self.epoch = 0
        self.proc: subprocess.Popen | None = None
        self.pending: dict[int, PendingCall] = {}
        self.parked: list[PendingCall] = []
        self.breaker = breaker
        self.restarts = 0          # respawns after a death (not the first)
        self.views = 0
        self.recovered_last = False
        self.died_at: float | None = None
        self.backoff_until = 0.0
        self.last_frame_at = 0.0
        self.ping_outstanding = False
        self.ready_event = threading.Event()


class ShardSupervisor:
    """Routes requests over crash-contained shard worker processes."""

    def __init__(self, directory, *, shards: int = 2,
                 config: SupervisorConfig | None = None, **overrides):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if config is None:
            config = SupervisorConfig(**overrides)
        elif overrides:
            from dataclasses import replace
            config = replace(config, **overrides)
        self.config = config
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.ring = HashRing(shards, replicas=config.ring_replicas)
        self._rng = random.Random(config.jitter_seed)
        self._shards = [
            _Shard(
                index, self.directory / f"shard-{index:02d}",
                CircuitBreaker(
                    failure_threshold=config.breaker_failure_threshold,
                    cooldown_seconds=config.breaker_cooldown_seconds,
                ),
            )
            for index in range(shards)
        ]
        self._call_seq = 0
        self._seq_lock = threading.Lock()
        self._closed = False
        self._monitor: threading.Thread | None = None
        self._stop = threading.Event()

    # -- metric plumbing -----------------------------------------------------

    @staticmethod
    def _count(name: str, amount: int = 1) -> None:
        obs.increment(f"supervise.{name}", amount)

    def _publish_shard_gauges(self, shard: _Shard) -> None:
        prefix = f"supervise.shard.{shard.index}"
        obs.set_gauge(f"{prefix}.epoch", shard.epoch)
        obs.set_gauge(f"{prefix}.inflight", len(shard.pending))
        obs.set_gauge(f"supervise.breaker.{shard.index}.state",
                      _BREAKER_CODES[shard.breaker.state])

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        """Spawn every shard worker and wait until all are serving."""
        if self._closed:
            raise ServiceClosed("cannot restart a closed supervisor")
        for shard in self._shards:
            with shard.lock:
                if shard.state is ShardState.STOPPED:
                    self._spawn(shard)
        deadline = time.monotonic() + self.config.ready_timeout
        for shard in self._shards:
            remaining = deadline - time.monotonic()
            if not shard.ready_event.wait(max(0.0, remaining)):
                self.close(drain=False)
                raise ServiceError(
                    f"shard {shard.index} did not become ready within "
                    f"{self.config.ready_timeout}s"
                )
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="shard-monitor", daemon=True)
        self._monitor.start()
        obs.emit_event(obs.INFO, "supervise", "supervise.started",
                       f"supervisor serving {len(self._shards)} shard(s)",
                       shards=len(self._shards))
        return self

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop serving and reap every worker.

        With ``drain`` (the default) each shard's in-flight requests
        finish first; without it they fail with :class:`ServiceClosed`.
        """
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        deadline = time.monotonic() + timeout
        for shard in self._shards:
            self._close_shard(shard, drain=drain, deadline=deadline)
        obs.emit_event(obs.INFO, "supervise", "supervise.closed",
                       "supervisor shut down")

    def _close_shard(self, shard: _Shard, *, drain: bool,
                     deadline: float) -> None:
        if drain:
            while time.monotonic() < deadline:
                with shard.lock:
                    busy = (shard.state is ShardState.UP
                            and (shard.pending or shard.parked))
                if not busy:
                    break
                time.sleep(0.005)
        with shard.lock:
            was_up = shard.state is ShardState.UP
            shard.state = ShardState.STOPPING
            stranded = list(shard.pending.values()) + shard.parked
            shard.pending.clear()
            shard.parked.clear()
            proc = shard.proc
        for call in stranded:
            call._fail(ServiceClosed("supervisor shut down"))
        if proc is not None and proc.poll() is None:
            if was_up:
                try:
                    with shard.write_lock:
                        write_frame(proc.stdin,
                                    {"op": "shutdown", "id": -1})
                except (OSError, ValueError):
                    pass
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        with shard.lock:
            shard.state = ShardState.STOPPED

    # -- spawning and the reader thread --------------------------------------

    def _spawn(self, shard: _Shard) -> None:
        """(Re)start one worker. Caller holds ``shard.lock``."""
        shard.epoch += 1
        shard.state = ShardState.STARTING
        shard.ready_event.clear()
        shard.ping_outstanding = False
        import repro
        src_root = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(src_root) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        argv = [
            sys.executable, "-m", "repro.supervise.worker",
            str(shard.directory),
            "--shard", str(shard.index),
            "--epoch", str(shard.epoch),
            "--seed", str(self.config.seed + shard.index),
        ]
        if self.config.scale is not None:
            argv += ["--scale", str(self.config.scale)]
        argv += ["--metrics-interval",
                 str(self.config.metrics_interval
                     if self.config.federate_metrics else 0)]
        argv += list(self.config.worker_extra_args)
        shard.directory.mkdir(parents=True, exist_ok=True)
        # worker stderr goes to a per-shard log for post-mortems; the
        # protocol pipes stay clean. Rotation happens here, at spawn,
        # because Popen holds the fd for the incarnation's whole life.
        self._rotate_log(shard.directory / "worker.log")
        with open(shard.directory / "worker.log", "ab") as log:
            shard.proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=log, env=env,
            )
        shard.last_frame_at = time.monotonic()
        reader = threading.Thread(
            target=self._reader_loop,
            args=(shard, shard.epoch, shard.proc),
            name=f"shard-{shard.index}-reader-e{shard.epoch}", daemon=True,
        )
        reader.start()

    def _rotate_log(self, path: Path) -> None:
        """Size-capped ``worker.log`` rotation: shift ``.1`` .. ``.N``
        and truncate, keeping ``log_keep`` generations."""
        keep = self.config.log_keep
        limit = self.config.log_max_bytes
        if keep < 1 or limit <= 0:
            return
        try:
            if path.stat().st_size < limit:
                return
        except OSError:
            return  # first spawn: nothing to rotate
        for generation in range(keep, 1, -1):
            older = path.with_name(f"{path.name}.{generation - 1}")
            if older.exists():
                os.replace(older, path.with_name(f"{path.name}.{generation}"))
        os.replace(path, path.with_name(f"{path.name}.1"))
        self._count("log.rotations")

    def _reader_loop(self, shard: _Shard, epoch: int,
                     proc: subprocess.Popen) -> None:
        """Drain one incarnation's stdout until EOF, then report death."""
        while True:
            try:
                frame = read_frame(proc.stdout)
            except WireError:
                break
            if frame is None:
                break
            self._handle_frame(shard, frame)
        proc.kill()  # no-op when already dead; covers torn-frame exits
        proc.wait()  # reap: no zombies, and poll() turns truthful
        self._on_worker_death(shard, epoch)

    def _handle_frame(self, shard: _Shard, frame: dict) -> None:
        call: PendingCall | None = None
        to_redispatch: list[PendingCall] = []
        with shard.lock:
            if frame.get("epoch") != shard.epoch:
                # the fence: a stale incarnation's buffered reply must
                # not resolve (or double-resolve) anything — and its
                # piggybacked metrics/spans are dropped with it. A
                # traced call re-dispatched under the same id records
                # the hit so the stitched trace shows the fence.
                self._count("replies.fenced")
                stale = shard.pending.get(frame.get("id"))
                if stale is not None:
                    stale.fenced += 1
                return
            shard.last_frame_at = time.monotonic()
            # detach the piggybacked observability payloads under the
            # lock; the (slower) merge happens outside it
            metrics = frame.pop("metrics", None)
            events = frame.pop("events", None)
            op = frame.get("op")
            if op == "ready":
                to_redispatch = self._on_ready(shard, frame)
            else:
                call = shard.pending.pop(frame.get("id"), None)
                if call is not None and call.op == "ping":
                    shard.ping_outstanding = False
                self._publish_shard_gauges(shard)
        if metrics is not None or events is not None:
            self._merge_observability(shard, metrics, events)
        # frame writes happen outside the state lock (see class docstring)
        for parked in to_redispatch:
            parked.redispatched = True
            self._count("queries.redispatched")
            try:
                self._dispatch(shard, parked)
            except (ShardUnavailable, ServiceClosed) as error:
                parked._fail(error)
        if op == "ready":
            return
        if call is None:
            self._count("replies.orphaned")
            return
        if not call._resolve(frame):
            self._count("replies.duplicate")  # fencing keeps this at 0

    def _merge_observability(self, shard: _Shard, metrics: dict | None,
                             events: list | None) -> None:
        """Fold one worker's piggybacked export into this process:
        metric deltas under ``{shard=N}`` labels, forwarded events
        re-emitted shard-tagged. Never called for fenced frames."""
        from ..obs.federation import merge_export
        label = str(shard.index)
        if metrics is not None:
            started = time.perf_counter()
            merged = merge_export(obs.global_metrics(), metrics,
                                  {"shard": label})
            self._count("obs.merges")
            self._count("obs.series_merged", merged)
            obs.observe("supervise.obs.merge_seconds",
                        time.perf_counter() - started)
            # the shard is exporting again: its series are live
            obs.set_gauge("supervise.obs.stale", 0,
                          labels={"shard": label})
        if events:
            self._count("obs.events_forwarded", len(events))
            for record in events:
                fields = dict(record.get("fields") or {})
                fields.setdefault("shard", shard.index)
                fields.setdefault("origin", "worker")
                try:
                    obs.emit_event(
                        int(record.get("sev", obs.WARNING)),
                        str(record.get("sub", "worker")),
                        str(record.get("name", "worker.event")),
                        str(record.get("msg", "")), **fields,
                    )
                except TypeError:
                    # a field name colliding with a positional — drop
                    # the event rather than the reply that carried it
                    self._count("obs.events_dropped")

    def _on_ready(self, shard: _Shard, frame: dict) -> list[PendingCall]:
        """Caller holds ``shard.lock``: the incarnation is serving.
        Returns the parked calls to re-dispatch (outside the lock)."""
        shard.state = ShardState.UP
        shard.views = int(frame.get("views", 0))
        shard.recovered_last = bool(frame.get("recovered", False))
        shard.breaker.record_success()
        if shard.died_at is not None:
            failover = time.monotonic() - shard.died_at
            shard.died_at = None
            obs.observe("supervise.failover_seconds", failover)
            obs.emit_event(
                obs.INFO, "supervise", "supervise.shard.recovered",
                f"shard {shard.index} recovered in {failover:.3f}s "
                f"(epoch {shard.epoch}, {shard.views} views)",
                shard=shard.index, epoch=shard.epoch,
            )
        parked, shard.parked = shard.parked, []
        self._publish_shard_gauges(shard)
        shard.ready_event.set()
        return parked

    def _on_worker_death(self, shard: _Shard, epoch: int) -> None:
        with shard.lock:
            if shard.epoch != epoch or shard.state in (
                    ShardState.STOPPING, ShardState.STOPPED):
                return  # stale incarnation, or we are shutting down
            if self._closed:
                shard.state = ShardState.STOPPED
                stranded = list(shard.pending.values()) + shard.parked
                shard.pending.clear()
                shard.parked.clear()
                for call in stranded:
                    call._fail(ServiceClosed("supervisor shut down"))
                return
            died_starting = shard.state is ShardState.STARTING
            shard.state = ShardState.RECOVERING
            if shard.died_at is None:
                shard.died_at = time.monotonic()
            shard.ready_event.clear()
            inflight = list(shard.pending.values())
            shard.pending.clear()
            for call in inflight:
                if call.dispatches:
                    # the incarnation this dispatch went to is gone:
                    # seal its record so the stitched trace shows it
                    record = call.dispatches[-1]
                    if record.get("ended") is None:
                        record["ended"] = time.perf_counter()
                        record["status"] = "died"
                if call.op != "query" or call.redispatched:
                    # exactly-once: a call that already got its one
                    # re-dispatch fails instead of looping; control
                    # calls (ping/verify/checkpoint) never re-dispatch
                    call._fail(ShardUnavailable(
                        f"shard {shard.index} crashed"
                        + (" again during re-dispatch"
                           if call.redispatched else ""),
                        shard=shard.index,
                    ))
                else:
                    shard.parked.append(call)
            shard.breaker.record_failure()
            attempt = max(1, shard.breaker.consecutive_failures)
            delay = self.config.restart_backoff.delay(attempt, self._rng)
            shard.backoff_until = time.monotonic() + delay
            self._count("shard.restarts" if not died_starting
                        else "shard.start_failures")
            self._count(f"shard.{shard.index}.deaths")
            # the shard's federated series stop updating until its
            # successor's first export: mark them stale
            obs.set_gauge("supervise.obs.stale", 1,
                          labels={"shard": str(shard.index)})
            self._publish_shard_gauges(shard)
            obs.emit_event(
                obs.WARNING, "supervise", "supervise.shard.died",
                f"shard {shard.index} worker died (epoch {epoch}); "
                f"restart in {delay:.3f}s",
                shard=shard.index, epoch=epoch,
            )

    # -- the monitor (restarts, heartbeats) ----------------------------------

    def _monitor_loop(self) -> None:
        interval = self.config.tick_seconds
        while not self._stop.wait(interval):
            now = time.monotonic()
            for shard in self._shards:
                ping = False
                with shard.lock:
                    if shard.state is ShardState.RECOVERING:
                        if now < shard.backoff_until:
                            continue
                        if shard.breaker.allow():
                            self._respawn(shard)
                        else:
                            self._break_shard(shard)
                    elif shard.state is ShardState.BROKEN:
                        if shard.breaker.allow():
                            # the half-open probe: one restart attempt
                            self._respawn(shard, probe=True)
                    elif shard.state is ShardState.UP:
                        ping = self._heartbeat_due(shard, now)
                if ping:
                    try:
                        self._dispatch(
                            shard, self._new_call("ping", {}, shard.index))
                    except (ShardUnavailable, ServiceClosed):
                        pass

    def _respawn(self, shard: _Shard, *, probe: bool = False) -> None:
        """Caller holds ``shard.lock``: restart a dead worker, with the
        failover timeline's middle event (died → **respawn** →
        recovered) so the story reads whole in the event log."""
        shard.restarts += 1
        obs.emit_event(
            obs.INFO, "supervise", "supervise.shard.respawn",
            f"restarting shard {shard.index} "
            f"(epoch {shard.epoch} -> {shard.epoch + 1}, "
            f"restart #{shard.restarts}"
            + (", half-open probe" if probe else "") + ")",
            shard=shard.index, epoch=shard.epoch + 1,
            restarts=shard.restarts, probe=probe,
        )
        self._spawn(shard)

    def _break_shard(self, shard: _Shard) -> None:
        """Caller holds ``shard.lock``: crash loop → fail fast."""
        shard.state = ShardState.BROKEN
        parked, shard.parked = shard.parked, []
        for call in parked:
            call._fail(ShardUnavailable(
                f"shard {shard.index} is crash-looping "
                f"(breaker open)", shard=shard.index,
                retry_after=shard.breaker.retry_after,
            ))
        self._publish_shard_gauges(shard)
        obs.emit_event(
            obs.ERROR, "supervise", "supervise.shard.broken",
            f"shard {shard.index} is crash-looping; breaker open",
            shard=shard.index,
        )

    def _heartbeat_due(self, shard: _Shard, now: float) -> bool:
        """Caller holds ``shard.lock``: liveness for quiet shards.
        Returns True when a ping should be dispatched (by the caller,
        outside the lock)."""
        silent_for = now - shard.last_frame_at
        if silent_for > self.config.heartbeat_timeout:
            # hung worker (alive but mute): kill it, the reader's EOF
            # drives the normal death path
            if shard.proc is not None and shard.proc.poll() is None:
                shard.proc.send_signal(signal.SIGKILL)
            return False
        if (silent_for >= self.config.heartbeat_interval
                and not shard.ping_outstanding):
            shard.ping_outstanding = True
            return True
        return False

    # -- dispatch ------------------------------------------------------------

    def _new_call(self, op: str, payload: dict, shard: int) -> PendingCall:
        with self._seq_lock:
            self._call_seq += 1
            return PendingCall(self._call_seq, op, payload, shard)

    def _dispatch(self, shard: _Shard, call: PendingCall) -> None:
        """Register ``call`` and write its frame (fail-fast when down)."""
        with shard.lock:
            if shard.state is not ShardState.UP:
                raise ShardUnavailable(
                    f"shard {shard.index} is {shard.state.value}",
                    shard=shard.index,
                    retry_after=shard.breaker.retry_after,
                )
            call.epoch = shard.epoch
            if call.traced:
                call.dispatches.append({
                    "epoch": shard.epoch,
                    "started": time.perf_counter(),
                    "ended": None, "status": "inflight",
                })
            shard.pending[call.id] = call
            proc = shard.proc
            self._publish_shard_gauges(shard)
        frame = {"op": call.op, "id": call.id, **call.payload}
        try:
            with shard.write_lock:
                write_frame(proc.stdin, frame)
        except (OSError, ValueError) as error:
            # the pipe died under us: the reader thread will notice the
            # EOF and run the death path; this call was never received
            with shard.lock:
                shard.pending.pop(call.id, None)
                if call in shard.parked:
                    shard.parked.remove(call)
            raise ShardUnavailable(
                f"shard {shard.index} control pipe is down: {error}",
                shard=shard.index,
            ) from error

    def submit(self, op: str, payload: dict, shard_index: int) -> PendingCall:
        """Dispatch one call to a specific shard (fail-fast when down)."""
        if self._closed:
            raise ServiceClosed("supervisor is closed")
        call = self._new_call(op, payload, shard_index)
        self._dispatch(self._shards[shard_index], call)
        return call

    # -- the serving surface -------------------------------------------------

    def shard_for(self, key: str) -> int:
        return self.ring.lookup(key)

    def _to_result(self, shard_index: int, call: PendingCall,
                   reply: dict) -> ShardResult:
        return ShardResult(
            shard=shard_index, epoch=reply.get("epoch", -1),
            uris=reply.get("uris", []), count=reply.get("count", 0),
            elapsed_seconds=reply.get("elapsed", 0.0),
            degraded=reply.get("degraded", False),
            redispatched=call.redispatched,
        )

    def query(self, iql: str, *, key: str | None = None,
              limit: int | None = None,
              timeout: float | None = None,
              tenant: str | None = None,
              trace=None) -> ShardResult:
        """Route one query by its key (default: the query text).

        ``tenant`` rides the frame into the worker's telemetry (the
        shard's ``query.*``/``service.*`` series gain a
        ``{tenant="..."}`` variant, federated back with the shard
        label). ``trace`` is an optional
        :class:`~repro.trace.TraceCollector`: the worker executes under
        its own collector, ships the span tree back in the reply, and
        the stitched cross-process tree is grafted into ``trace``.
        """
        lookup_started = time.perf_counter()
        shard_index = self.shard_for(key if key is not None else iql)
        lookup_seconds = time.perf_counter() - lookup_started
        payload: dict = {"iql": iql, "limit": limit}
        if tenant is not None:
            payload["tenant"] = tenant
        if trace is not None:
            payload["trace"] = True
        started = time.perf_counter()
        try:
            call = self.submit("query", payload, shard_index)
            reply = call.result(timeout)
        except Exception:
            self._count("queries.failed")
            raise
        self._count("queries.served")
        if trace is not None:
            self._stitch_trace(
                trace, call, iql=iql, shard_index=shard_index,
                lookup_seconds=lookup_seconds,
                total_seconds=time.perf_counter() - started,
                rows=reply.get("count"),
            )
        return self._to_result(shard_index, call, reply)

    def _stitch_trace(self, trace, call: PendingCall, *, iql: str,
                      shard_index: int, lookup_seconds: float,
                      total_seconds: float,
                      rows: int | None = None) -> None:
        """Assemble the cross-process tree for one routed query and
        graft it into ``trace``: ring lookup, one dispatch span per
        incarnation (pipe round-trip; a dead incarnation is sealed as
        an error, the re-dispatch labeled), the worker's executor-queue
        wait, the worker's own adopted span tree, and a fence marker
        when stale replies were dropped."""
        from ..trace import Span, span_from_wire
        root = Span(operator="ShardedQuery",
                    detail=f"ShardedQuery({iql!r})", depth=0,
                    actual_rows=rows, elapsed_seconds=total_seconds,
                    status="ok")
        root.children.append(Span(
            operator="RingLookup",
            detail=f"RingLookup(shard {shard_index} of "
                   f"{len(self._shards)})",
            depth=1, elapsed_seconds=lookup_seconds, status="ok"))
        for attempt, record in enumerate(call.dispatches):
            status = record.get("status", "inflight")
            note = ", re-dispatch" if attempt else ""
            if status == "died":
                note += ", worker died"
            dispatch = Span(
                operator="Dispatch",
                detail=f"Dispatch(epoch={record['epoch']}, "
                       f"pipe round-trip{note})",
                depth=1,
                elapsed_seconds=(record["ended"] - record["started"]
                                 if record.get("ended") is not None
                                 else None),
                status={"ok": "ok", "died": "error",
                        "error": "error"}.get(status, "running"),
            )
            queue_wait = record.get("queue_wait")
            if queue_wait is not None:
                dispatch.children.append(Span(
                    operator="WorkerQueue",
                    detail="WorkerQueue(executor hand-off)",
                    depth=2, elapsed_seconds=queue_wait, status="ok"))
            for wire in record.get("spans") or ():
                dispatch.children.append(span_from_wire(wire, depth=2))
            root.children.append(dispatch)
            for name, value in (record.get("counters") or {}).items():
                trace.counters[name] = (trace.counters.get(name, 0)
                                        + int(value))
        if call.fenced:
            root.children.append(Span(
                operator="EpochFence",
                detail=f"EpochFence(dropped {call.fenced} stale "
                       f"reply frame(s))",
                depth=1, status="ok"))
        trace.graft(root)

    def explain_analyze(self, iql: str, *, key: str | None = None,
                        limit: int | None = None,
                        timeout: float | None = None,
                        tenant: str | None = None) -> "FleetExplainReport":
        """Execute one routed query under a stitched cross-process
        trace and return a renderable report (the sharded counterpart
        of ``QueryProcessor.explain_analyze``)."""
        from ..trace import TraceCollector
        trace = TraceCollector()
        result = self.query(iql, key=key, limit=limit, timeout=timeout,
                            tenant=tenant, trace=trace)
        return FleetExplainReport(result=result, trace=trace)

    def query_all(self, iql: str, *, limit: int | None = None,
                  timeout: float | None = None,
                  tenant: str | None = None) -> dict[int, ShardResult]:
        """Fan one query out to every UP shard (scatter, no gather
        ordering); shards that are down are skipped."""
        payload: dict = {"iql": iql, "limit": limit}
        if tenant is not None:
            payload["tenant"] = tenant
        calls: dict[int, PendingCall] = {}
        for shard in self._shards:
            try:
                calls[shard.index] = self.submit(
                    "query", dict(payload), shard.index)
            except ShardUnavailable:
                continue
        return {index: self._to_result(index, call, call.result(timeout))
                for index, call in calls.items()}

    def flush_telemetry(self, timeout: float | None = 30.0) -> None:
        """Nudge every UP shard with a ping so pending piggybacked
        exports land now (a worker's last deltas otherwise wait for the
        next reply or heartbeat). Best-effort: down shards are skipped,
        failures ignored."""
        calls = []
        for shard in self._shards:
            try:
                calls.append(self.submit("ping", {}, shard.index))
            except (ShardUnavailable, ServiceClosed):
                continue
        for call in calls:
            try:
                call.result(timeout)
            except Exception:
                continue

    def verify_shard(self, shard_index: int, *, seed: int = 0,
                     count: int = 25, timeout: float | None = 120.0) -> dict:
        """Run engine ≡ oracle verification inside the worker."""
        call = self.submit("verify", {"seed": seed, "count": count},
                           shard_index)
        return call.result(timeout)

    def checkpoint_shard(self, shard_index: int, *,
                         timeout: float | None = 120.0) -> dict:
        call = self.submit("checkpoint", {}, shard_index)
        return call.result(timeout)

    # -- chaos + introspection ----------------------------------------------

    def kill_shard(self, shard_index: int) -> int:
        """SIGKILL one worker (the chaos hook); returns the dead pid."""
        shard = self._shards[shard_index]
        with shard.lock:
            proc = shard.proc
        if proc is None or proc.poll() is not None:
            raise ServiceError(f"shard {shard_index} has no live worker")
        proc.send_signal(signal.SIGKILL)
        return proc.pid

    def wait_until_up(self, shard_index: int,
                      timeout: float = 60.0) -> bool:
        """Block until a shard is serving again (True) or timeout."""
        shard = self._shards[shard_index]
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with shard.lock:
                if shard.state is ShardState.UP:
                    return True
            time.sleep(0.01)
        return False

    @property
    def shards(self) -> int:
        return len(self._shards)

    def shard_states(self) -> dict[int, str]:
        states = {}
        for shard in self._shards:
            with shard.lock:
                states[shard.index] = shard.state.value
        return states

    def stats(self) -> dict[str, object]:
        """Per-shard supervision counters for dashboards and tests,
        including each shard's federated query p99 (from the merged
        ``{shard=N}`` series) and export staleness."""
        snapshot = obs.global_metrics().snapshot()
        report: dict[str, object] = {"shards": len(self._shards)}
        for shard in self._shards:
            with shard.lock:
                prefix = f"shard.{shard.index}"
                report[f"{prefix}.state"] = shard.state.value
                report[f"{prefix}.epoch"] = shard.epoch
                report[f"{prefix}.restarts"] = shard.restarts
                report[f"{prefix}.inflight"] = len(shard.pending)
                report[f"{prefix}.parked"] = len(shard.parked)
                report[f"{prefix}.views"] = shard.views
                report[f"{prefix}.breaker"] = shard.breaker.state.value
                report[f"{prefix}.pid"] = (shard.proc.pid
                                           if shard.proc is not None
                                           else None)
            latency = snapshot.get(
                f'query.latency_seconds{{shard="{shard.index}"}}')
            if latency is not None:
                report[f"{prefix}.p99_seconds"] = latency.p99
                report[f"{prefix}.served"] = latency.count
            stale = snapshot.get(
                f'supervise.obs.stale{{shard="{shard.index}"}}')
            if stale is not None:
                report[f"{prefix}.stale"] = bool(stale)
        return report
