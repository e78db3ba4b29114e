"""The concurrent dataspace query service.

:class:`DataspaceService` wraps one :class:`~repro.facade.Dataspace` in
a serving layer: a fixed worker thread pool executes iQL queries pulled
from a bounded admission queue, a plan cache skips re-parsing, a result
cache (invalidated by the RVM's change events) skips re-execution, and
a metrics registry counts everything. Sessions carry per-client
defaults and statistics.

Execution against the RVM is read-only and the pool size bounds
concurrency, so the single-threaded index structures are shared without
a global lock; writes (``refresh``/``sync``) are expected from one
control thread, exactly as in the single-user iMeMex prototype — the
service adds *concurrent readers*, not concurrent writers.

Life cycle::

    service = dataspace.serve(workers=4, max_queue_depth=32)
    with service:
        result = service.execute('"database"')          # blocking
        ticket = service.submit('//papers//*.tex')      # async
        result = ticket.result(timeout=5.0)
    # context exit drains the queue and stops the workers
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .. import obs
from ..core.errors import (
    DeadlineExceeded,
    IdmError,
    QueryCancelled,
    ServiceClosed,
)
from ..query import QueryResult
from .admission import AdmissionController, CancellationToken
from .cache import PlanCache, ResultCache
from ..obs.metrics import MetricsRegistry


class QueryTicket:
    """A handle on one submitted query (a minimal future)."""

    def __init__(self, iql: str, *, session: "Session | None" = None,
                 tenant: str | None = None):
        self.iql = iql
        self.session = session
        self.tenant = tenant
        self.token = CancellationToken()
        self.cached = False
        self.queue_wait_seconds = 0.0
        self._done = threading.Event()
        self._result: QueryResult | None = None
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def cancel(self, reason: str = "cancelled by client") -> None:
        """Request cooperative cancellation (queued or running). A
        running query notices at the engine's next batch boundary —
        streaming scans checkpoint once per vector pulled — so a
        cancelled scan stops mid-corpus instead of finishing."""
        self.token.cancel(reason)

    def result(self, timeout: float | None = None) -> QueryResult:
        """Block until finished; raises the query's error if it failed."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query did not finish within {timeout}s: {self.iql!r}"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        self._done.wait(timeout)
        return self._error

    # -- resolution (service side) -------------------------------------------

    def _resolve(self, result: QueryResult) -> None:
        self._result = result
        self._done.set()
        if self.session is not None:
            self.session._record(ok=True)

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()
        if self.session is not None:
            self.session._record(ok=False)


@dataclass
class _Request:
    """One admitted query, queued for a worker."""

    ticket: QueryTicket
    use_cache: bool
    enqueued_at: float
    deadline: float | None


@dataclass
class Session:
    """Per-client state: defaults plus submission statistics."""

    session_id: str
    service: "DataspaceService"
    default_deadline: float | None = None
    use_cache: bool = True
    #: admission-time tenant label: stamped on every query this session
    #: submits, flowing into ``service.*``/``query.*`` telemetry as a
    #: ``{tenant="..."}`` series (observational only)
    tenant: str | None = None
    submitted: int = 0
    served: int = 0
    failed: int = 0
    closed: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def submit(self, iql: str, *, deadline: float | None = None,
               use_cache: bool | None = None) -> QueryTicket:
        if self.closed:
            raise ServiceClosed(f"session {self.session_id!r} is closed")
        with self._lock:
            self.submitted += 1
        return self.service.submit(
            iql, session=self,
            deadline=deadline if deadline is not None
            else self.default_deadline,
            use_cache=self.use_cache if use_cache is None else use_cache,
            tenant=self.tenant,
        )

    def query(self, iql: str, *, deadline: float | None = None,
              timeout: float | None = None) -> QueryResult:
        return self.submit(iql, deadline=deadline).result(timeout)

    def _record(self, *, ok: bool) -> None:
        with self._lock:
            if ok:
                self.served += 1
            else:
                self.failed += 1

    def close(self) -> None:
        self.closed = True
        self.service._sessions.pop(self.session_id, None)


class DataspaceService:
    """A multi-session, concurrent query service over one dataspace."""

    def __init__(self, dataspace, *, workers: int = 4,
                 max_queue_depth: int = 32,
                 plan_cache_size: int = 128,
                 result_cache_size: int = 512,
                 cache_results: bool = True,
                 default_deadline: float | None = None,
                 trace_queries: bool = False,
                 autostart: bool = True):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.dataspace = dataspace
        self.processor = dataspace.processor
        self.workers = workers
        self.cache_results = cache_results
        #: per-query tracing: each executed query runs under a
        #: TraceCollector whose per-operator aggregates and substrate
        #: counters are folded into the metrics registry (``query.*``)
        self.trace_queries = trace_queries
        self.default_deadline = default_deadline
        self.admission = AdmissionController(max_queue_depth=max_queue_depth)
        self.plan_cache = PlanCache(plan_cache_size)
        self.result_cache = ResultCache(result_cache_size,
                                        bus=dataspace.rvm.bus)
        self.metrics = MetricsRegistry()
        self._sessions: dict[str, Session] = {}
        self._session_seq = 0
        self._threads: list[threading.Thread] = []
        #: admitted but not yet resolved (queued or executing) — the
        #: drain condition; covers the gap between dequeue and execute.
        self._outstanding = 0
        self._state_lock = threading.Lock()
        self._closed = False
        self._stopping = False
        #: set by close(drain=False): workers fail anything they dequeue
        #: instead of executing it (abort now, not after the backlog)
        self._fail_fast = False
        # Index before any worker touches the RVM, so the pool only ever
        # reads shared structures.
        if not dataspace._synced:
            dataspace.sync()
        if autostart:
            self.start()

    # -- metric plumbing -----------------------------------------------------

    def _count(self, name: str, amount: int = 1,
               tenant: str | None = None) -> None:
        """Bump a service counter, mirrored process-globally.

        The per-service registry keeps the legacy flat name (pinned by
        existing dashboards and tests); the global registry gets the
        same series under the dotted ``service.*`` namespace so one
        ``repro stats`` scrape sees every service in the process. With
        a ``tenant``, a ``{tenant="..."}`` -labeled global series
        records alongside (never instead of) the unlabeled one.
        """
        self.metrics.counter(name).increment(amount)
        obs.increment(f"service.{name}", amount)
        if tenant:
            obs.increment(f"service.{name}", amount,
                          labels={"tenant": tenant})

    def _observe(self, name: str, value: float,
                 tenant: str | None = None) -> None:
        self.metrics.histogram(name).observe(value)
        obs.observe(f"service.{name}", value)
        if tenant:
            obs.observe(f"service.{name}", value,
                        labels={"tenant": tenant})

    # -- lifecycle -----------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._threads)

    def start(self) -> "DataspaceService":
        if self._closed:
            raise ServiceClosed("cannot restart a closed service")
        if self._threads:
            return self
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"dataspace-worker-{index}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        obs.emit_event(obs.INFO, "service", "service.started",
                       f"service started with {self.workers} worker(s)",
                       workers=self.workers)
        return self

    def close(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the service. With ``drain`` (the default) queued queries
        finish first; without it they fail with :class:`ServiceClosed`."""
        if self._closed:
            return
        self._closed = True  # no new submissions
        if not drain:
            # abort now: anything a worker dequeues from here on fails
            # with ServiceClosed instead of executing — without this, a
            # queued slow query the workers race out of the admission
            # queue would keep its caller blocked until it finished
            self._fail_fast = True
        if drain and self._threads:
            deadline = time.monotonic() + timeout
            while self._outstanding > 0 and time.monotonic() < deadline:
                time.sleep(0.002)
        # _stopping must be set before the final queue drain: a submit
        # that raced past the _closed check self-drains when it sees
        # _stopping, so a ticket enqueued after this drain cannot strand
        self._stopping = True
        for request in self.admission.drain():
            request.ticket._fail(ServiceClosed("service shut down"))
            with self._state_lock:
                self._outstanding -= 1
        self.admission.poison(len(self._threads) or 1)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        self.result_cache.detach()
        obs.emit_event(
            obs.INFO, "service", "service.closed", "service shut down",
            served=self.metrics.counter("queries.served").value,
        )

    def __enter__(self) -> "DataspaceService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -- sessions ------------------------------------------------------------

    def open_session(self, session_id: str | None = None, *,
                     deadline: float | None = None,
                     use_cache: bool = True,
                     tenant: str | None = None) -> Session:
        if self._closed:
            raise ServiceClosed("service is closed")
        with self._state_lock:
            if session_id is None:
                self._session_seq += 1
                session_id = f"session-{self._session_seq}"
            if session_id in self._sessions:
                raise ValueError(f"session {session_id!r} already open")
            session = Session(session_id=session_id, service=self,
                              default_deadline=deadline, use_cache=use_cache,
                              tenant=tenant)
            self._sessions[session_id] = session
        self._count("sessions.opened")
        return session

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    # -- submission ----------------------------------------------------------

    def submit(self, iql: str, *, session: Session | None = None,
               deadline: float | None = None,
               use_cache: bool = True,
               tenant: str | None = None) -> QueryTicket:
        """Admit one query; returns immediately with a ticket.

        ``tenant`` labels the query's telemetry (defaults to the
        session's tenant). Raises
        :class:`~repro.core.errors.Overloaded` when the queue is full
        and :class:`ServiceClosed` after shutdown began.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        if tenant is None and session is not None:
            tenant = session.tenant
        self._count("queries.submitted", tenant=tenant)
        ticket = QueryTicket(iql, session=session, tenant=tenant)
        use_cache = use_cache and self.cache_results
        if use_cache:
            cached = self.result_cache.get(iql)
            if cached is not None:
                self._count("cache.result.hits")
                self._count("queries.served", tenant=tenant)
                self._observe("latency.total_seconds", 0.0, tenant=tenant)
                ticket.cached = True
                ticket._resolve(cached)
                return ticket
            self._count("cache.result.misses")
        if deadline is None:
            deadline = self.default_deadline
        absolute = (time.monotonic() + deadline
                    if deadline is not None else None)
        ticket.token.deadline = absolute
        request = _Request(ticket=ticket, use_cache=use_cache,
                           enqueued_at=time.monotonic(), deadline=absolute)
        with self._state_lock:
            self._outstanding += 1
        try:
            self.admission.submit(request)
        except Exception:
            with self._state_lock:
                self._outstanding -= 1
            self._count("admission.rejected")
            raise
        if self._stopping:
            # lost the race against close(): the workers are gone, so
            # fail anything still queued rather than strand its ticket
            for stranded in self.admission.drain():
                stranded.ticket._fail(ServiceClosed("service shut down"))
                with self._state_lock:
                    self._outstanding -= 1
        return ticket

    def execute(self, iql: str, *, deadline: float | None = None,
                use_cache: bool = True,
                timeout: float | None = None) -> QueryResult:
        """Submit and wait: the blocking convenience call."""
        return self.submit(iql, deadline=deadline,
                           use_cache=use_cache).result(timeout)

    # -- worker side ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            request = self.admission.take(timeout=0.1)
            if request is None:
                if self._stopping:
                    return
                continue
            try:
                self._process(request)
            finally:
                with self._state_lock:
                    self._outstanding -= 1

    def _process(self, request: _Request) -> None:
        ticket = request.ticket
        if self._fail_fast:
            # close(drain=False) aborted the service: fail the ticket
            # instead of executing a request the caller no longer wants
            self._count("queries.failed")
            ticket._fail(ServiceClosed("service shut down before "
                                       "execution"))
            return
        waited = time.monotonic() - request.enqueued_at
        ticket.queue_wait_seconds = waited
        self._observe("latency.queue_seconds", waited)
        try:
            ticket.token.check()  # cancelled or expired while queued
        except (DeadlineExceeded, QueryCancelled) as error:
            self._count_failure(error, tenant=ticket.tenant)
            ticket._fail(error)
            return
        prepared = self.plan_cache.get(ticket.iql)
        if prepared is None:
            self._count("cache.plan.misses")
            try:
                prepared = self.processor.prepare(ticket.iql)
            except IdmError as error:
                self._count("queries.failed")
                ticket._fail(error)
                return
            self.plan_cache.put(ticket.iql, prepared)
        else:
            self._count("cache.plan.hits")
        epoch = self.result_cache.epoch
        trace = None
        if self.trace_queries:
            from ..trace import TraceCollector
            trace = TraceCollector()
        started = time.monotonic()
        try:
            result = self.processor.execute_prepared(
                prepared, cancel_token=ticket.token, trace=trace,
                tenant=ticket.tenant,
            )
        except BaseException as error:  # noqa: BLE001 — fail the ticket
            if trace is not None:
                self._fold_trace(trace)  # partial traces still count
            self._count_failure(error, tenant=ticket.tenant)
            ticket._fail(error)
            return
        elapsed = time.monotonic() - started
        if trace is not None:
            self._fold_trace(trace)
        self._observe("latency.execute_seconds", elapsed,
                      tenant=ticket.tenant)
        self._observe("latency.total_seconds", waited + elapsed,
                      tenant=ticket.tenant)
        self._count("queries.served", tenant=ticket.tenant)
        if result.is_degraded:
            # a partial answer is marked, and never cached: once the
            # sources recover, the next execution must not replay the
            # degraded result as if it were complete
            self._count("queries.degraded")
        elif request.use_cache:
            self.result_cache.put(ticket.iql, result, epoch=epoch)
        ticket._resolve(result)

    def _fold_trace(self, trace) -> None:
        """Aggregate one query's trace into the shared registry: per
        plan-operator call/row counts and inclusive latency histograms
        (``query.op.*``) plus the substrate/laziness counters
        (``query.ctx.*``, ``query.component.*``) — the serve-side view
        of EXPLAIN ANALYZE, exposed through :meth:`stats` alongside the
        end-to-end p50/p95/p99."""
        for operator, agg in trace.aggregates().items():
            self.metrics.increment(f"query.op.{operator}.calls",
                                   int(agg["calls"]))
            self.metrics.increment(f"query.op.{operator}.rows",
                                   int(agg["rows"]))
            self.metrics.observe(f"query.op.{operator}.seconds",
                                 agg["seconds"])
        for name, value in trace.counters.items():
            self.metrics.increment(f"query.{name}", value)

    def _count_failure(self, error: BaseException,
                       tenant: str | None = None) -> None:
        if isinstance(error, DeadlineExceeded):
            self._count("queries.deadline_missed")
        elif isinstance(error, QueryCancelled):
            self._count("queries.cancelled")
        self._count("queries.failed", tenant=tenant)

    # -- introspection -------------------------------------------------------

    def stats(self, *, include_global: bool = True) -> dict[str, object]:
        """Counters, cache sizes and latency snapshots in one dict.

        With ``include_global`` the process-global telemetry snapshot is
        folded in, never overriding a service-local key.
        """
        report = self.metrics.snapshot()
        report["cache.result.size"] = len(self.result_cache)
        report["cache.plan.size"] = len(self.plan_cache)
        report["queue.depth"] = self.admission.depth
        report["sessions.open"] = self.session_count
        if include_global:
            for name, value in obs.global_metrics().snapshot().items():
                report.setdefault(name, value)
        return report
