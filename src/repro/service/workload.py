"""A closed-loop workload driver for the query service.

Each of ``clients`` threads opens a session and issues its requests
back-to-back (closed loop: the next request starts when the previous
response arrives), walking a query mix round-robin from a per-client
offset. The driver reports throughput, latency percentiles and error
counts — the numbers `benchmarks/bench_service.py` and the CLI's
``serve`` command print.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..core.errors import Overloaded, ServiceError
from ..obs.metrics import HistogramSnapshot, _percentile


@dataclass
class WorkloadReport:
    """What one closed-loop run measured."""

    clients: int
    requests: int = 0
    succeeded: int = 0
    rejected: int = 0
    failed: int = 0
    elapsed_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list, repr=False)

    @property
    def throughput(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.succeeded / self.elapsed_seconds

    def latency_snapshot(self) -> HistogramSnapshot:
        if not self.latencies:
            return HistogramSnapshot.empty()
        ordered = sorted(self.latencies)
        return HistogramSnapshot(
            count=len(ordered), minimum=ordered[0], maximum=ordered[-1],
            mean=sum(ordered) / len(ordered),
            p50=_percentile(ordered, 0.50),
            p95=_percentile(ordered, 0.95),
            p99=_percentile(ordered, 0.99),
        )


def run_closed_loop(service, queries: list[str], *, clients: int = 4,
                    requests_per_client: int = 25,
                    use_cache: bool = True,
                    deadline: float | None = None) -> WorkloadReport:
    """Drive ``service`` with ``clients`` concurrent closed-loop clients."""
    if not queries:
        raise ValueError("the query mix must not be empty")
    report = WorkloadReport(clients=clients)
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        session = service.open_session(f"load-client-{index}",
                                       use_cache=use_cache)
        barrier.wait()
        local_latencies = []
        succeeded = rejected = failed = 0
        for step in range(requests_per_client):
            iql = queries[(index + step) % len(queries)]
            t0 = time.perf_counter()
            try:
                session.query(iql, deadline=deadline, timeout=60.0)
            except Overloaded:
                rejected += 1
                continue
            except ServiceError:
                failed += 1
                continue
            local_latencies.append(time.perf_counter() - t0)
            succeeded += 1
        session.close()
        with lock:
            report.succeeded += succeeded
            report.rejected += rejected
            report.failed += failed
            report.requests += requests_per_client
            report.latencies.extend(local_latencies)

    threads = [threading.Thread(target=client, args=(index,), daemon=True)
               for index in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    report.elapsed_seconds = time.perf_counter() - started
    return report
