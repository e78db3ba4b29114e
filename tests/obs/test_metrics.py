"""The global metrics registry: concurrency, labels, callback gauges."""

from __future__ import annotations

import gc
import threading

from repro import obs
from repro.obs.metrics import MetricsRegistry, _percentile


class TestConcurrency:
    THREADS = 8
    PER_THREAD = 2500

    def test_no_lost_counter_increments(self):
        barrier = threading.Barrier(self.THREADS)

        def worker(index: int) -> None:
            barrier.wait()
            for _ in range(self.PER_THREAD):
                obs.increment("test.shared")
                obs.increment("test.per_thread",
                              labels={"thread": str(index)})

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        snapshot = obs.global_metrics().snapshot()
        assert snapshot["test.shared"] == self.THREADS * self.PER_THREAD
        for index in range(self.THREADS):
            key = f'test.per_thread{{thread="{index}"}}'
            assert snapshot[key] == self.PER_THREAD

    def test_no_lost_histogram_observations(self):
        barrier = threading.Barrier(self.THREADS)

        def worker() -> None:
            barrier.wait()
            for step in range(self.PER_THREAD):
                obs.observe("test.latency", step * 0.001)

        threads = [threading.Thread(target=worker)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        snap = obs.global_metrics().snapshot()["test.latency"]
        assert snap.count == self.THREADS * self.PER_THREAD

    def test_snapshot_while_recording_is_consistent(self):
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer() -> None:
            while not stop.is_set():
                obs.increment("test.race")
                obs.observe("test.race_hist", 0.001)

        def reader() -> None:
            try:
                for _ in range(200):
                    snapshot = obs.global_metrics().snapshot()
                    value = snapshot.get("test.race", 0)
                    assert isinstance(value, int) and value >= 0
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        writers = [threading.Thread(target=writer) for _ in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop.set()
        for thread in writers:
            thread.join()
        assert not errors


class TestLabels:
    def test_each_label_set_is_its_own_series(self):
        registry = MetricsRegistry()
        registry.increment("hits", labels={"source": "imap"})
        registry.increment("hits", 2, labels={"source": "fs"})
        registry.increment("hits")
        snapshot = registry.snapshot()
        assert snapshot['hits{source="imap"}'] == 1
        assert snapshot['hits{source="fs"}'] == 2
        assert snapshot["hits"] == 1

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        registry.increment("x", labels={"a": "1", "b": "2"})
        registry.increment("x", labels={"b": "2", "a": "1"})
        assert registry.snapshot() == {'x{a="1",b="2"}': 2}


class TestCallbackGauges:
    def test_callback_evaluated_at_snapshot_time(self):
        registry = MetricsRegistry()

        class Box:
            n = 1

        box = Box()
        registry.register_gauge_callback("box.n", lambda b: b.n,
                                         owner=box)
        assert registry.snapshot()["box.n"] == 1
        box.n = 7
        assert registry.snapshot()["box.n"] == 7

    def test_dead_owner_drops_the_series(self):
        registry = MetricsRegistry()

        class Owner:
            size = 3

        owner = Owner()
        registry.register_gauge_callback("owner.size",
                                         lambda o: o.size, owner=owner)
        assert registry.snapshot()["owner.size"] == 3
        del owner
        gc.collect()
        assert "owner.size" not in registry.snapshot()

    def test_callback_exception_reads_zero(self):
        registry = MetricsRegistry()

        class Owner:
            pass

        owner = Owner()
        registry.register_gauge_callback(
            "broken", lambda o: o.missing_attribute, owner=owner)
        assert registry.snapshot()["broken"] == 0.0

    def test_reregistration_replaces_last_writer_wins(self):
        registry = MetricsRegistry()

        class Owner:
            def __init__(self, n):
                self.n = n

        first, second = Owner(1), Owner(2)
        registry.register_gauge_callback("n", lambda o: o.n, owner=first)
        registry.register_gauge_callback("n", lambda o: o.n, owner=second)
        assert registry.snapshot()["n"] == 2


class TestHistogram:
    def test_percentiles_nearest_rank(self):
        assert _percentile([], 0.5) == 0.0
        ordered = [float(v) for v in range(1, 101)]
        assert _percentile(ordered, 0.0) == 1.0
        assert _percentile(ordered, 1.0) == 100.0
        assert _percentile(ordered, 0.95) == 95.0

    def test_snapshot_totals(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("h", value)
        snap = registry.snapshot()["h"]
        assert snap.count == 4
        assert snap.total == 10.0
        assert snap.minimum == 1.0
        assert snap.maximum == 4.0
        assert snap.mean == 2.5

    def test_reservoir_keeps_count_and_sum_exact(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for _ in range(histogram.reservoir + 100):
            histogram.observe(1.0)
        snap = histogram.snapshot()
        assert snap.count == histogram.reservoir + 100
        assert snap.total == float(histogram.reservoir + 100)


class TestDisabled:
    def test_disabled_helpers_record_nothing(self):
        obs.configure(enabled=False)
        obs.increment("off.counter")
        obs.observe("off.hist", 1.0)
        obs.set_gauge("off.gauge", 1.0)
        obs.emit_event(obs.INFO, "test", "off.event")
        assert obs.global_metrics().snapshot() == {}
        assert len(obs.global_events()) == 0

    def test_gauge_callbacks_register_even_while_disabled(self):
        obs.configure(enabled=False)

        class Box:
            n = 5

        box = Box()
        obs.gauge_callback("off.box", lambda b: b.n, owner=box)
        obs.configure(enabled=True)
        assert obs.global_metrics().snapshot()["off.box"] == 5
        del box
