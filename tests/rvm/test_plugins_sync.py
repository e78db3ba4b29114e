"""Tests for data source plugins and the Synchronization Manager."""

from datetime import datetime

import pytest

from repro.core.identity import ViewId
from repro.fulltext import Term
from repro.imapsim import Attachment, EmailMessage, ImapServer
from repro.imapsim.latency import no_latency
from repro.rss import FeedEntry, FeedServer
from repro.rvm import ResourceViewManager, default_content_converter
from repro.rvm.plugins import FilesystemPlugin, ImapPlugin, RssPlugin
from repro.vfs import VirtualFileSystem

TEX = r"\begin{document}\section{Intro}Mike Franklin here.\end{document}"


@pytest.fixture()
def world():
    fs = VirtualFileSystem()
    fs.mkdir("/docs", parents=True)
    fs.write_file("/docs/paper.tex", TEX)
    fs.write_file("/docs/note.txt", "plain database note")

    imap = ImapServer(latency=no_latency())
    imap.deliver("INBOX", EmailMessage(
        subject="hello", sender="a@b", to=("c@d",),
        date=datetime(2005, 2, 1), body="database body",
        attachments=(Attachment("paper.tex", TEX),),
    ))

    feeds = FeedServer()
    feeds.publish("f/u", "Chan",
                  [FeedEntry("g1", "News", "desc", datetime(2006, 1, 1))])

    rvm = ResourceViewManager()
    converter = default_content_converter()
    rvm.register_plugin(FilesystemPlugin(fs, content_converter=converter))
    rvm.register_plugin(ImapPlugin(imap, content_converter=converter))
    rvm.register_plugin(RssPlugin(feeds))
    return fs, imap, feeds, rvm


class TestInitialScan:
    def test_all_sources_scanned(self, world):
        fs, imap, feeds, rvm = world
        report = rvm.sync_all()
        assert set(report.sources) == {"fs", "imap", "rss"}
        assert report.views_total == len(rvm.catalog)

    def test_base_vs_derived_classification(self, world):
        fs, imap, feeds, rvm = world
        report = rvm.sync_all()
        fs_report = report["fs"]
        # /, /docs, paper.tex, note.txt are base; latex subgraph derived
        assert fs_report.views_base == 4
        assert fs_report.views_derived_latex > 0
        # the email message and its attachment count as base items
        assert report["imap"].views_base == 3  # INBOX + message + attachment

    def test_phase_timings_populated(self, world):
        fs, imap, feeds, rvm = world
        report = rvm.sync_all()
        for source in report.sources.values():
            assert source.catalog_seconds >= 0
            assert source.indexing_seconds >= 0
            assert source.total_seconds > 0

    def test_simulated_latency_reported(self):
        fs = VirtualFileSystem()
        imap = ImapServer()  # default latency model: nonzero costs
        imap.deliver("INBOX", EmailMessage(
            subject="x", sender="a@b", to=("c@d",),
            date=datetime(2005, 2, 1), body="hello",
        ))
        rvm = ResourceViewManager()
        rvm.register_plugin(ImapPlugin(imap))
        report = rvm.sync_all()
        assert report["imap"].access_simulated_seconds > 0

    def test_rescan_is_idempotent(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        count = len(rvm.catalog)
        rvm.sync_all()
        assert len(rvm.catalog) == count


class TestFilesystemChanges:
    def test_new_file_indexed_after_notification(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        rvm.subscribe_all()
        fs.write_file("/docs/fresh.txt", "totally fresh words")
        processed = rvm.process_notifications()
        assert processed > 0
        assert ViewId("fs", "/docs/fresh.txt") in rvm.catalog
        assert Term("totally").keys(rvm.indexes.content_index) == {
            "fs:///docs/fresh.txt"
        }

    def test_modified_file_reindexed(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        rvm.subscribe_all()
        fs.write_file("/docs/note.txt", "replacement wording")
        rvm.process_notifications()
        assert Term("replacement").keys(rvm.indexes.content_index) == {
            "fs:///docs/note.txt"
        }
        assert Term("plain").keys(rvm.indexes.content_index) == set()

    def test_deleted_file_unregistered(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        rvm.subscribe_all()
        fs.delete("/docs/note.txt")
        rvm.process_notifications()
        assert ViewId("fs", "/docs/note.txt") not in rvm.catalog

    def test_deleted_tex_removes_derived_views(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        rvm.subscribe_all()
        derived_before = [
            uri for uri in rvm.catalog.all_uris()
            if uri.startswith("fs:///docs/paper.tex#")
        ]
        assert derived_before
        fs.delete("/docs/paper.tex")
        rvm.process_notifications()
        derived_after = [
            uri for uri in rvm.catalog.all_uris()
            if uri.startswith("fs:///docs/paper.tex#")
        ]
        assert derived_after == []

    def test_polling_without_subscription(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        fs.write_file("/docs/polled.txt", "poll me")
        processed = rvm.poll_and_process()
        assert processed > 0
        assert ViewId("fs", "/docs/polled.txt") in rvm.catalog


class TestImapChanges:
    def test_new_message_indexed(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        rvm.subscribe_all()
        imap.deliver("INBOX", EmailMessage(
            subject="brand new", sender="x@y", to=("z@w",),
            date=datetime(2005, 3, 1), body="unique newmail words",
        ))
        rvm.process_notifications()
        assert Term("newmail").keys(rvm.indexes.content_index)


class TestRssChanges:
    def test_rss_has_no_notifications(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        supported = rvm.subscribe_all()
        assert supported["rss"] is False
        assert supported["fs"] is True

    def test_poll_detects_new_entries(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        rvm.poll_and_process()  # baseline poll marks existing entries seen
        feeds.add_entry("f/u", FeedEntry("g2", "Scoop", "breaking",
                                         datetime(2006, 2, 2)))
        processed = rvm.poll_and_process()
        assert processed > 0
        assert Term("scoop").keys(rvm.indexes.content_index)


class TestManagerAccessors:
    def test_view_returns_live_object(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        view = rvm.view("fs:///docs/note.txt")
        assert view is not None
        assert view.text() == "plain database note"

    def test_views_batch(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        views = rvm.views(["fs:///docs/note.txt", "fs:///ghost"])
        assert len(views) == 1

    def test_index_size_report(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        report = rvm.index_size_report()
        assert set(report) >= {"name", "tuple", "content", "group",
                               "catalog", "total", "net_input"}
        assert report["total"] >= report["content"]


class TestMovesAndSubtrees:
    def test_moved_file_reindexed_under_new_path(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        rvm.subscribe_all()
        fs.move("/docs/note.txt", "/docs/renamed.txt")
        rvm.process_notifications()
        assert ViewId("fs", "/docs/renamed.txt") in rvm.catalog
        assert ViewId("fs", "/docs/note.txt") not in rvm.catalog
        assert Term("plain").keys(rvm.indexes.content_index) == {
            "fs:///docs/renamed.txt"
        }

    def test_deleted_folder_unregisters_subtree(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        rvm.subscribe_all()
        fs.mkdir("/docs/sub")
        fs.write_file("/docs/sub/inner.txt", "inner words")
        rvm.process_notifications()
        assert ViewId("fs", "/docs/sub/inner.txt") in rvm.catalog
        fs.delete("/docs/sub", recursive=True)
        rvm.process_notifications()
        assert ViewId("fs", "/docs/sub") not in rvm.catalog
        assert ViewId("fs", "/docs/sub/inner.txt") not in rvm.catalog

    def test_duplicate_authority_rejected(self, world):
        fs, imap, feeds, rvm = world
        from repro.core.errors import DataSourceError
        from repro.rvm.plugins import FilesystemPlugin
        with pytest.raises(DataSourceError):
            rvm.register_plugin(FilesystemPlugin(fs))

    def test_proxy_resolve_routes_by_authority(self, world):
        fs, imap, feeds, rvm = world
        rvm.sync_all()
        view = rvm.proxy.resolve(ViewId("fs", "/docs/note.txt"))
        assert view is not None and view.name == "note.txt"
        assert rvm.proxy.resolve(ViewId("nowhere", "/x")) is None
