"""The query service over a dataspace with a source down.

Degraded responses are marked and never cached: a recovered source must
not be shadowed by a stale partial answer.
"""

import pytest

ROOTS = "/*"  # reaches back to the live sources on every execution


@pytest.fixture()
def dataspace(three_sources):
    three_sources.sync()
    return three_sources


class TestDegradedService:
    def test_degraded_responses_marked_and_not_cached(self, dataspace,
                                                      take_down):
        take_down(dataspace, "imap")
        with dataspace.serve(workers=1) as service:
            first = service.execute(ROOTS)
            assert first.is_degraded
            stats = service.stats()
            assert stats["queries.degraded"] == 1
            assert stats["cache.result.size"] == 0  # nothing cached
            # had the partial answer been cached, this would have
            # replayed it as a (clean) hit instead of running again
            second = service.execute(ROOTS)
            assert second.is_degraded
            assert service.stats()["queries.degraded"] == 2
            assert service.stats().get("cache.result.hits", 0) == 0

    def test_recovered_source_serves_full_answer_not_stale_partial(
            self, dataspace, take_down, monkeypatch):
        take_down(dataspace, "imap")
        with dataspace.serve(workers=1) as service:
            degraded = service.execute(ROOTS)
            assert degraded.is_degraded
            # the source recovers: the next execution runs live, answers
            # fully, and only now caches
            monkeypatch.undo()
            recovered = service.execute(ROOTS)
            assert not recovered.is_degraded
            assert set(degraded.uris()) < set(recovered.uris())
            assert service.stats()["cache.result.size"] == 1
            cached = service.execute(ROOTS)
            assert not cached.is_degraded
            assert service.stats()["cache.result.hits"] == 1

    def test_healthy_service_reports_no_degradation(self, dataspace):
        with dataspace.serve(workers=1) as service:
            result = service.execute(ROOTS)
            assert not result.is_degraded
            assert "queries.degraded" not in service.stats()
