"""``repro.obs`` — unified telemetry for the whole PDSMS.

One process-global spine with three organs:

* :func:`global_metrics` — the :class:`MetricsRegistry` every subsystem
  records into, under one dotted naming convention (``query.*``,
  ``sync.*``, ``index.*``, ``service.*``, ``wal.*``, ``supervise.*``);
  rendered as Prometheus exposition text, JSON, or a human table;
* :func:`global_events` — the structured :class:`EventLog` (ring
  buffer, severities, optional sink, deterministic sampling);
* :func:`global_slowlog` — the :class:`SlowQueryLog`, automatically
  capturing the EXPLAIN ANALYZE span tree of any query over the
  configured threshold.

The module-level helpers (:func:`increment`, :func:`observe`,
:func:`set_gauge`, :func:`gauge_callback`, :func:`emit_event`) are the
instrumentation points the subsystems call; each is a no-op when
telemetry is disabled (:func:`configure` ``enabled=False``, or the
``REPRO_OBS_DISABLED`` environment variable), and
``benchmarks/bench_obs_overhead.py`` pins the enabled-vs-disabled cost
of the hot query path under 5%.

:func:`reset` swaps in fresh registries — tests use it for isolation;
production code never needs it.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Mapping

from .events import (
    DEBUG,
    ERROR,
    INFO,
    WARNING,
    Event,
    EventLog,
    severity_name,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    IndexStats,
    MetricsRegistry,
)
from .slowlog import SlowQuery, SlowQueryLog, in_recapture

__all__ = [
    "DEBUG", "ERROR", "INFO", "WARNING",
    "Counter", "Event", "EventLog", "Gauge", "Histogram",
    "HistogramSnapshot", "IndexStats", "MetricsRegistry", "ObsConfig",
    "SlowQuery", "SlowQueryLog",
    "configure", "emit_event", "enabled", "gauge_callback",
    "global_events", "global_metrics", "global_slowlog", "in_recapture",
    "increment", "observe", "reset", "set_gauge", "severity_name",
]


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


@dataclass
class ObsConfig:
    """Telemetry settings, applied via :func:`configure`."""

    #: master switch: False turns every helper into a no-op
    enabled: bool = True
    #: queries at/above this wall time land in the slow-query log;
    #: None disables slow-query capture
    slow_query_seconds: float | None = 1.0
    #: recapture untraced slow queries by re-executing under a trace
    slow_query_recapture: bool = True
    #: at most one recapture re-execution per this many seconds
    slow_query_recapture_interval: float = 10.0
    slow_query_capacity: int = 64
    event_capacity: int = 1024
    event_min_severity: int = INFO


_lock = threading.Lock()
_config = ObsConfig()
if os.environ.get("REPRO_OBS_DISABLED", "") not in ("", "0"):
    _config.enabled = False
_env_threshold = _env_float("REPRO_SLOW_QUERY_SECONDS")
if _env_threshold is not None:
    _config.slow_query_seconds = (_env_threshold
                                  if _env_threshold > 0 else None)

_metrics = MetricsRegistry()
_events = EventLog(capacity=_config.event_capacity,
                   min_severity=_config.event_min_severity)
_slowlog = SlowQueryLog(
    threshold_seconds=_config.slow_query_seconds,
    capacity=_config.slow_query_capacity,
    recapture=_config.slow_query_recapture,
    recapture_interval_seconds=_config.slow_query_recapture_interval,
)


# -- access ------------------------------------------------------------------

def config() -> ObsConfig:
    return _config


def enabled() -> bool:
    """Is telemetry recording at all?"""
    return _config.enabled


def global_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _metrics


def global_events() -> EventLog:
    """The process-global structured event log."""
    return _events


def global_slowlog() -> SlowQueryLog:
    """The process-global slow-query log."""
    return _slowlog


def configure(**changes) -> ObsConfig:
    """Update telemetry settings in place.

    Accepts any :class:`ObsConfig` field; slow-query settings propagate
    to the live :class:`SlowQueryLog`, event settings to the live
    :class:`EventLog` (capacity changes take effect on :func:`reset`).
    """
    global _config
    with _lock:
        for key, value in changes.items():
            if not hasattr(_config, key):
                raise TypeError(f"unknown telemetry setting {key!r}")
            setattr(_config, key, value)
        _slowlog.threshold_seconds = _config.slow_query_seconds
        _slowlog.recapture = _config.slow_query_recapture
        _slowlog.recapture_interval_seconds = (
            _config.slow_query_recapture_interval
        )
        _events.min_severity = _config.event_min_severity
    return _config


def reset(**changes) -> None:
    """Fresh registries (and optionally new settings) — test isolation."""
    global _metrics, _events, _slowlog
    with _lock:
        for key, value in changes.items():
            if not hasattr(_config, key):
                raise TypeError(f"unknown telemetry setting {key!r}")
            setattr(_config, key, value)
        _metrics = MetricsRegistry()
        _events = EventLog(capacity=_config.event_capacity,
                           min_severity=_config.event_min_severity)
        _slowlog = SlowQueryLog(
            threshold_seconds=_config.slow_query_seconds,
            capacity=_config.slow_query_capacity,
            recapture=_config.slow_query_recapture,
            recapture_interval_seconds=(
                _config.slow_query_recapture_interval
            ),
        )


# -- instrumentation points (no-ops when disabled) ---------------------------

def increment(name: str, amount: int = 1,
              labels: Mapping[str, str] | None = None) -> None:
    if _config.enabled:
        _metrics.increment(name, amount, labels)


def observe(name: str, value: float,
            labels: Mapping[str, str] | None = None) -> None:
    if _config.enabled:
        _metrics.observe(name, value, labels)


def set_gauge(name: str, value: float,
              labels: Mapping[str, str] | None = None) -> None:
    if _config.enabled:
        _metrics.set_gauge(name, value, labels)


def gauge_callback(name: str, fn: Callable, *, owner: object | None = None,
                   labels: Mapping[str, str] | None = None) -> None:
    """Register a snapshot-time gauge (see
    :meth:`MetricsRegistry.register_gauge_callback`). Registered even
    while disabled — evaluation happens only on snapshot, which is
    never on a hot path."""
    _metrics.register_gauge_callback(name, fn, owner=owner, labels=labels)


def emit_event(severity: int, subsystem: str, name: str,
               message: str = "", **fields: object) -> None:
    if _config.enabled:
        _events.emit(severity, subsystem, name, message, **fields)


def record_slow_query(query: str, elapsed_seconds: float, *, trace=None,
                      plan_text: str = "", processor=None,
                      degraded: bool = False) -> None:
    """The executor's post-execution hook: counts the query and, when
    it crossed the threshold, captures it into the slow-query log and
    emits a ``query.slow`` warning event."""
    if not _config.enabled:
        return
    if not _slowlog.is_slow(elapsed_seconds):
        return
    entry = _slowlog.record(query, elapsed_seconds, trace=trace,
                            plan_text=plan_text, processor=processor,
                            degraded=degraded)
    if entry is None:
        return  # re-entrant recapture; never count it twice
    _metrics.increment("query.slow")
    _events.emit(WARNING, "query", "query.slow",
                 f"query took {elapsed_seconds * 1000:.1f} ms",
                 query=query,
                 elapsed_ms=round(elapsed_seconds * 1000, 3),
                 threshold_ms=round(
                     (_slowlog.threshold_seconds or 0.0) * 1000, 3),
                 recaptured=entry.recaptured)
