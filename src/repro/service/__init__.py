"""``repro.service`` — the concurrent dataspace query service.

A serving layer over :class:`~repro.facade.Dataspace`: a worker thread
pool behind a bounded admission queue, plan and result caches (the
result cache invalidated event-driven from the RVM's push bus), query
deadlines with cooperative cancellation, per-client sessions and a
metrics registry with latency percentiles. See ``DESIGN.md`` §
"The query service" for the architecture and the invalidation
protocol.
"""

from ..core.errors import (
    DeadlineExceeded,
    Overloaded,
    QueryCancelled,
    ServiceClosed,
    ServiceError,
)
from ..obs.metrics import (
    Counter,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
)
from .admission import AdmissionController, CancellationToken
from .cache import LRUCache, PlanCache, ResultCache
from .server import DataspaceService, QueryTicket, Session
from .workload import WorkloadReport, run_closed_loop

__all__ = [
    "AdmissionController", "CancellationToken", "Counter",
    "DataspaceService", "DeadlineExceeded", "Histogram",
    "HistogramSnapshot", "LRUCache", "MetricsRegistry", "Overloaded",
    "PlanCache", "QueryCancelled", "QueryTicket", "ResultCache",
    "ServiceClosed", "ServiceError", "Session", "WorkloadReport",
    "run_closed_loop",
]
