"""The query service over a degraded dataspace.

Degraded responses are marked, never cached (a recovered source must
not be shadowed by a stale partial answer), and the service's stats
expose per-source breaker health.
"""

import pytest

from repro.resilience import FaultPlan

from .conftest import CHAOS_SEED, fast_config, three_source_dataspace

ROOTS = "/*"  # reaches back to the live sources on every execution


@pytest.fixture()
def dataspace():
    ds = three_source_dataspace(resilience=fast_config(max_attempts=1))
    ds.sync()
    return ds


class TestDegradedService:
    def test_degraded_responses_marked_and_not_cached(self, dataspace):
        dataspace.inject_faults(
            "imap",
            FaultPlan(seed=CHAOS_SEED).fail_calls(1, 2),
        )
        with dataspace.serve(workers=1) as service:
            first = service.execute(ROOTS)
            assert first.is_degraded
            stats = service.stats()
            assert stats["queries.degraded"] == 1
            assert stats["cache.result.size"] == 0  # nothing cached
            # call 2 also faults: had the partial answer been cached,
            # this would have replayed it as a (clean) hit instead
            second = service.execute(ROOTS)
            assert second.is_degraded
            assert service.stats()["queries.degraded"] == 2
            assert service.stats().get("cache.result.hits", 0) == 0

    def test_recovered_source_serves_full_answer_not_stale_partial(
            self, dataspace):
        dataspace.inject_faults(
            "imap", FaultPlan(seed=CHAOS_SEED).fail_calls(1)
        )
        with dataspace.serve(workers=1) as service:
            degraded = service.execute(ROOTS)
            assert degraded.is_degraded
            # the source recovered (only call 1 was scripted): the next
            # execution runs live, answers fully, and only now caches
            recovered = service.execute(ROOTS)
            assert not recovered.is_degraded
            assert set(degraded.uris()) < set(recovered.uris())
            assert service.stats()["cache.result.size"] == 1
            cached = service.execute(ROOTS)
            assert not cached.is_degraded
            assert service.stats()["cache.result.hits"] == 1

    def test_stats_expose_source_health(self, dataspace):
        dataspace.inject_faults("imap", FaultPlan(seed=CHAOS_SEED).outage())
        with dataspace.serve(workers=1) as service:
            for _ in range(5):  # breaker threshold in fast_config
                service.execute(ROOTS)
            stats = service.stats()
            assert stats["resilience.sources_down"] == "imap"
            assert stats["resilience.source.imap.state"] == "open"
            assert stats["resilience.source.imap.failures"] >= 5
            assert stats["resilience.source.fs.state"] == "closed"
            assert stats["queries.degraded"] == 5

    def test_healthy_service_reports_no_sources_down(self, dataspace):
        with dataspace.serve(workers=1) as service:
            result = service.execute(ROOTS)
            assert not result.is_degraded
            stats = service.stats()
            assert stats["resilience.sources_down"] == "-"
            assert "queries.degraded" not in stats
