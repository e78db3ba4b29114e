"""The unified metrics registry: counters, gauges and histograms.

Grown out of the query service's private registry into the
process-global telemetry spine: every subsystem records under one
dotted naming convention —

* ``query.*``       — the query processor and batched engine
* ``sync.*``        — the synchronization manager and push bus
* ``index.*``       — index/replica/catalog sizes (callback gauges)
* ``service.*``     — the concurrent query service
* ``wal.*``         — the durability layer (WAL, checkpoints, recovery)
* ``supervise.*``   — the shard supervisor (restarts, breakers, epochs)

No external dependency — histograms keep raw observations (bounded by
a reservoir) and compute p50/p95/p99 on snapshot, which is exact for
the request volumes the benchmarks drive. All types are thread-safe;
workers record from pool threads while clients snapshot from theirs.

Metrics may carry **labels** (``registry.counter("query.executions",
labels={"tenant": "alice"})``); each distinct label set is its own time
series, exactly as in Prometheus. Snapshots key labeled series as
``name{key="value"}``. **Callback gauges** are evaluated only at
snapshot time and hold their owner by weak reference, so instrumented
structures (indexes, the catalog) pay nothing on their hot paths and die
without deregistration ceremony.

:meth:`MetricsRegistry.render_prometheus` emits the text exposition
format (``# TYPE`` comments, escaped labels, histograms as summaries);
:meth:`MetricsRegistry.snapshot_json` is the machine-readable tree.
"""

from __future__ import annotations

import json
import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Mapping

#: A label set, normalized to a sorted tuple of pairs (hashable).
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str] | None) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _series_name(name: str, labels: LabelKey) -> str:
    """The flat snapshot key: ``name`` or ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str, labels: Mapping[str, str] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down — set directly, or computed by a
    callback at snapshot time (see
    :meth:`MetricsRegistry.register_gauge_callback`)."""

    def __init__(self, name: str, labels: Mapping[str, str] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()
        # callback gauges: fn(owner) evaluated lazily; owner weakly held
        self._callback: Callable | None = None
        self._owner_ref: weakref.ref | None = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        callback = self._callback
        if callback is not None:
            if self._owner_ref is not None:
                owner = self._owner_ref()
                if owner is None:
                    return 0.0
                try:
                    return float(callback(owner))
                except Exception:
                    return 0.0
            try:
                return float(callback())
            except Exception:
                return 0.0
        with self._lock:
            return self._value

    @property
    def has_callback(self) -> bool:
        """True when reading ``value`` runs a callback (which may be
        arbitrarily expensive — e.g. an index-size walk)."""
        return self._callback is not None

    @property
    def dead(self) -> bool:
        """True for a callback gauge whose owner was collected."""
        return (self._callback is not None
                and self._owner_ref is not None
                and self._owner_ref() is None)


@dataclass(frozen=True)
class HistogramSnapshot:
    """One histogram's summary statistics at a point in time."""

    count: int
    minimum: float
    maximum: float
    mean: float
    p50: float
    p95: float
    p99: float
    total: float = 0.0

    @classmethod
    def empty(cls) -> "HistogramSnapshot":
        return cls(count=0, minimum=0.0, maximum=0.0, mean=0.0,
                   p50=0.0, p95=0.0, p99=0.0, total=0.0)


def _percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile over a pre-sorted list."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1,
                      round(fraction * (len(ordered) - 1))))
    return ordered[rank]


class Histogram:
    """Latency histogram over a sliding reservoir of observations."""

    def __init__(self, name: str, *, reservoir: int = 4096,
                 labels: Mapping[str, str] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self.reservoir = reservoir
        self._observations: list[float] = []
        self._count = 0
        self._total = 0.0
        self._minimum = float("inf")
        self._maximum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._total += value
            self._minimum = min(self._minimum, value)
            self._maximum = max(self._maximum, value)
            self._observations.append(value)
            if len(self._observations) > self.reservoir:
                # drop the oldest half; recent traffic dominates tails
                del self._observations[:self.reservoir // 2]

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    # -- federation (mergeable reservoir export) -----------------------------

    def export_state(self, tail: int) -> tuple[int, float, float, float,
                                               list[float]]:
        """A consistent ``(count, total, min, max, tail)`` snapshot for
        delta export: ``tail`` is a copy of the newest observations
        still in the reservoir (at most ``tail`` of them). The exporter
        subtracts its last-seen count/total to ship exact deltas and
        the sampled tail for percentile merging."""
        with self._lock:
            observations = (self._observations[-tail:] if tail > 0 else [])
            minimum = self._minimum if self._count else 0.0
            return (self._count, self._total, minimum, self._maximum,
                    list(observations))

    def merge(self, *, count: int, total: float, minimum: float,
              maximum: float, observations: list[float]) -> None:
        """Fold another histogram's exported delta into this one.

        Count and sum merge exactly; ``observations`` is the exporter's
        reservoir tail, so merged percentiles are approximate in
        exactly the way one registry's own reservoir already is."""
        if count <= 0:
            return
        with self._lock:
            self._count += count
            self._total += total
            self._minimum = min(self._minimum, minimum)
            self._maximum = max(self._maximum, maximum)
            self._observations.extend(observations)
            if len(self._observations) > self.reservoir:
                del self._observations[:self.reservoir // 2]

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            if self._count == 0:
                return HistogramSnapshot.empty()
            ordered = sorted(self._observations)
            return HistogramSnapshot(
                count=self._count,
                minimum=self._minimum,
                maximum=self._maximum,
                mean=self._total / self._count,
                p50=_percentile(ordered, 0.50),
                p95=_percentile(ordered, 0.95),
                p99=_percentile(ordered, 0.99),
                total=self._total,
            )


@dataclass(frozen=True)
class IndexStats:
    """The shared shape every index structure's ``stats()`` returns.

    ``entries`` is the structure's natural cardinality (documents for a
    full-text index, tuples for the vertical store, edges for a group
    replica); ``bytes_estimate`` its approximate in-memory footprint;
    ``detail`` whatever extra counts the structure keeps (term count,
    attribute count, net input bytes). The observability layer registers
    these uniformly as ``index.entries``/``index.bytes`` gauges.
    """

    name: str
    entries: int
    bytes_estimate: int
    detail: Mapping[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """Flat dict form (shared fields plus the structure's detail)."""
        out: dict[str, object] = {"name": self.name,
                                  "entries": self.entries,
                                  "bytes_estimate": self.bytes_estimate}
        out.update(self.detail)
        return out


# -- Prometheus exposition ---------------------------------------------------

def _prom_name(name: str) -> str:
    """A metric name sanitized for the exposition format."""
    out = []
    for index, ch in enumerate(name):
        if ch.isalnum() and (index > 0 or not ch.isdigit()):
            out.append(ch)
        elif ch == ":":
            out.append(ch)
        else:
            out.append("_")
    return "".join(out)


def _prom_escape(value: str) -> str:
    return (value.replace("\\", r"\\")
                 .replace("\n", r"\n")
                 .replace('"', r'\"'))


def _prom_labels(labels: LabelKey, extra: tuple[tuple[str, str], ...] = ()
                 ) -> str:
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{_prom_escape(v)}"'
                     for k, v in pairs)
    return f"{{{inner}}}"


class MetricsRegistry:
    """Named counters, gauges and histograms, created on first use.

    One process-global instance (``repro.obs.global_metrics()``) is the
    telemetry spine; the service keeps a private one per instance for
    its legacy per-service report.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        self._lock = threading.Lock()

    # -- creation ------------------------------------------------------------

    def counter(self, name: str,
                labels: Mapping[str, str] | None = None) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter(name, labels)
            return counter

    def gauge(self, name: str,
              labels: Mapping[str, str] | None = None) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge(name, labels)
            return gauge

    def histogram(self, name: str,
                  labels: Mapping[str, str] | None = None) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(name,
                                                              labels=labels)
            return histogram

    def register_gauge_callback(self, name: str, fn: Callable, *,
                                owner: object | None = None,
                                labels: Mapping[str, str] | None = None
                                ) -> Gauge:
        """A gauge computed at snapshot time by ``fn``.

        With ``owner`` given, the gauge holds it weakly and calls
        ``fn(owner)``; once the owner is collected the series drops out
        of snapshots (re-registration under the same name + labels
        replaces the callback — last writer wins, so a fresh dataspace
        takes over its predecessor's series).
        """
        gauge = self.gauge(name, labels)
        gauge._callback = fn
        gauge._owner_ref = weakref.ref(owner) if owner is not None else None
        return gauge

    # -- shorthands ----------------------------------------------------------

    def increment(self, name: str, amount: int = 1,
                  labels: Mapping[str, str] | None = None) -> None:
        """Shorthand: bump a named counter."""
        self.counter(name, labels).increment(amount)

    def observe(self, name: str, value: float,
                labels: Mapping[str, str] | None = None) -> None:
        """Shorthand: record one observation into a named histogram."""
        self.histogram(name, labels).observe(value)

    def set_gauge(self, name: str, value: float,
                  labels: Mapping[str, str] | None = None) -> None:
        """Shorthand: set a named gauge."""
        self.gauge(name, labels).set(value)

    # -- snapshots -----------------------------------------------------------

    def _collect(self):
        with self._lock:
            counters = list(self._counters.items())
            gauges = [(key, gauge) for key, gauge in self._gauges.items()
                      if not gauge.dead]
            histograms = list(self._histograms.items())
        return counters, gauges, histograms

    def series(self):
        """Every live series as ``(kind, name, labels, metric)`` tuples
        (labels in normalized :data:`LabelKey` form) — the iteration
        surface the federation exporter walks."""
        counters, gauges, histograms = self._collect()
        out = []
        for (name, labels), metric in counters:
            out.append(("counter", name, labels, metric))
        for (name, labels), metric in gauges:
            out.append(("gauge", name, labels, metric))
        for (name, labels), metric in histograms:
            out.append(("histogram", name, labels, metric))
        return out

    def snapshot(self) -> dict[str, object]:
        """Every metric's current value, flat: counters as ints, gauges
        as floats, histograms as :class:`HistogramSnapshot`. Labeled
        series key as ``name{key="value"}``."""
        counters, gauges, histograms = self._collect()
        report: dict[str, object] = {}
        for (name, labels), counter in counters:
            report[_series_name(name, labels)] = counter.value
        for (name, labels), gauge in gauges:
            report[_series_name(name, labels)] = gauge.value
        for (name, labels), histogram in histograms:
            report[_series_name(name, labels)] = histogram.snapshot()
        return report

    def snapshot_json(self) -> dict[str, object]:
        """The snapshot as a JSON-serializable tree: one entry per
        series with its kind, labels and value(s)."""
        counters, gauges, histograms = self._collect()
        series: list[dict[str, object]] = []
        for (name, labels), counter in counters:
            series.append({"name": name, "kind": "counter",
                           "labels": dict(labels),
                           "value": counter.value})
        for (name, labels), gauge in gauges:
            series.append({"name": name, "kind": "gauge",
                           "labels": dict(labels), "value": gauge.value})
        for (name, labels), histogram in histograms:
            snap = histogram.snapshot()
            series.append({
                "name": name, "kind": "histogram", "labels": dict(labels),
                "value": {
                    "count": snap.count, "sum": snap.total,
                    "min": snap.minimum, "max": snap.maximum,
                    "mean": snap.mean, "p50": snap.p50,
                    "p95": snap.p95, "p99": snap.p99,
                },
            })
        series.sort(key=lambda s: (s["name"], sorted(s["labels"].items())))
        return {"series": series}

    def render_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot_json(), indent=indent,
                          sort_keys=True)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """A human-readable dump (for the CLI's serve report)."""
        lines = []
        for name, value in sorted(self.snapshot().items()):
            if isinstance(value, HistogramSnapshot):
                lines.append(
                    f"{name}: n={value.count} mean={value.mean * 1000:.2f}ms "
                    f"p50={value.p50 * 1000:.2f}ms "
                    f"p95={value.p95 * 1000:.2f}ms "
                    f"p99={value.p99 * 1000:.2f}ms"
                )
            elif isinstance(value, float):
                lines.append(f"{name}: {value:g}")
            else:
                lines.append(f"{name}: {value}")
        return "\n".join(lines)

    def render_prometheus(self, *, prefix: str = "repro_") -> str:
        """The Prometheus text exposition format.

        Dotted names become underscored (``query.latency_seconds`` →
        ``repro_query_latency_seconds``); histograms render as
        summaries (quantile series plus ``_count``/``_sum``). Every
        sample line is ``name{labels} value`` with escaped label
        values, so any exposition-format scraper parses it.
        """
        counters, gauges, histograms = self._collect()
        lines: list[str] = []
        by_name: dict[str, list] = {}
        for (name, labels), metric in counters:
            by_name.setdefault(name, []).append(("counter", labels, metric))
        for (name, labels), metric in gauges:
            by_name.setdefault(name, []).append(("gauge", labels, metric))
        for (name, labels), metric in histograms:
            by_name.setdefault(name, []).append(("summary", labels, metric))
        for name in sorted(by_name):
            series = by_name[name]
            kind = series[0][0]
            prom = prefix + _prom_name(name)
            lines.append(f"# TYPE {prom} {kind}")
            for _, labels, metric in sorted(series, key=lambda s: s[1]):
                if kind == "summary":
                    snap = metric.snapshot()
                    for quantile, value in (("0.5", snap.p50),
                                            ("0.95", snap.p95),
                                            ("0.99", snap.p99)):
                        label_text = _prom_labels(
                            labels, (("quantile", quantile),)
                        )
                        lines.append(f"{prom}{label_text} {value:.9g}")
                    label_text = _prom_labels(labels)
                    lines.append(f"{prom}_count{label_text} {snap.count}")
                    lines.append(f"{prom}_sum{label_text} {snap.total:.9g}")
                else:
                    label_text = _prom_labels(labels)
                    value = metric.value
                    if isinstance(value, float):
                        lines.append(f"{prom}{label_text} {value:.9g}")
                    else:
                        lines.append(f"{prom}{label_text} {value}")
        return "\n".join(lines) + ("\n" if lines else "")
