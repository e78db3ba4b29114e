"""Partially failed synchronization is reportable, not fatal.

A source is taken down by making one of its plugin's real methods raise
:class:`~repro.core.errors.DataSourceError` (the ``take_down`` fixture);
undoing the patch is the source's recovery.
"""

import pytest


class TestDegradedSyncAll:
    def test_clean_sync_reports_no_degradation(self, three_sources):
        report = three_sources.sync()
        assert not report.is_degraded
        assert report.sources_skipped == []
        assert report.errors == {}
        for source in report.sources.values():
            assert not source.skipped and source.errors == []

    @pytest.mark.parametrize("down", ["imap", "rss"])
    def test_dead_source_is_skipped_not_fatal(self, three_sources,
                                              take_down, down):
        take_down(three_sources, down)
        report = three_sources.sync()
        assert report.is_degraded
        assert report.sources_skipped == [down]
        assert report[down].skipped
        assert report[down].views_total == 0
        assert len(report[down].errors) == 1
        # the reachable sources were indexed normally
        healthy = [report[a] for a in report.sources if a != down]
        assert len(healthy) == 2
        assert all(source.views_total > 0 for source in healthy)
        assert three_sources.view_count == sum(source.views_total
                                               for source in healthy)

    def test_resync_after_recovery_restores_the_source(
            self, three_sources, take_down, monkeypatch):
        take_down(three_sources, "imap")
        first = three_sources.sync()
        assert first.sources_skipped == ["imap"]
        monkeypatch.undo()  # the source is back
        second = three_sources.sync()
        assert second.sources_skipped == []
        assert second["imap"].views_total > 0


class TestPendingChanges:
    def test_failed_change_is_deferred_not_lost(self, three_sources,
                                                take_down, monkeypatch):
        three_sources.sync()
        # take imap down, then queue a change against it
        take_down(three_sources, "imap", "resolve")
        sync = three_sources.rvm.sync
        victim_uri = next(uri for uri in sync.live_views
                          if uri.startswith("imap://") and "#" not in uri)
        sync._pending.append(sync.live_views[victim_uri].view_id)
        assert sync.process_pending() == 0
        assert sync.pending_count == 1  # deferred for the next round
        # source recovers: the deferred change now applies
        monkeypatch.undo()
        assert sync.process_pending() == 1
        assert sync.pending_count == 0
