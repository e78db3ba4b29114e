"""Tests for the service metrics registry."""

import threading

from repro.service import Counter, Histogram, MetricsRegistry
from repro.obs.metrics import _percentile


class TestCounter:
    def test_increments(self):
        counter = Counter("queries")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_thread_safety(self):
        counter = Counter("contended")

        def spin():
            for _ in range(10_000):
                counter.increment()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 40_000


class TestPercentile:
    def test_empty(self):
        assert _percentile([], 0.5) == 0.0

    def test_known_distribution(self):
        ordered = [float(value) for value in range(1, 101)]
        assert _percentile(ordered, 0.50) == 50.0 or \
            _percentile(ordered, 0.50) == 51.0
        assert _percentile(ordered, 0.95) in (95.0, 96.0)
        assert _percentile(ordered, 0.99) in (99.0, 100.0)
        assert _percentile(ordered, 0.0) == 1.0
        assert _percentile(ordered, 1.0) == 100.0


class TestHistogram:
    def test_snapshot_statistics(self):
        histogram = Histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        snapshot = histogram.snapshot()
        assert snapshot.count == 100
        assert snapshot.minimum == 1.0
        assert snapshot.maximum == 100.0
        assert snapshot.mean == 50.5
        assert snapshot.p50 <= snapshot.p95 <= snapshot.p99

    def test_empty_snapshot(self):
        snapshot = Histogram("empty").snapshot()
        assert snapshot.count == 0
        assert snapshot.p99 == 0.0

    def test_reservoir_bounds_memory(self):
        histogram = Histogram("bounded", reservoir=100)
        for value in range(1000):
            histogram.observe(float(value))
        assert histogram.count == 1000
        assert len(histogram._observations) <= 100
        # recent observations dominate the percentile estimates
        assert histogram.snapshot().p50 > 500


class TestRegistry:
    def test_created_on_first_use(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_mixes_kinds(self):
        registry = MetricsRegistry()
        registry.counter("served").increment(3)
        registry.histogram("wait").observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot["served"] == 3
        assert snapshot["wait"].count == 1

    def test_render_is_text(self):
        registry = MetricsRegistry()
        registry.counter("served").increment()
        registry.histogram("wait").observe(0.001)
        text = registry.render()
        assert "served: 1" in text
        assert "p95" in text
