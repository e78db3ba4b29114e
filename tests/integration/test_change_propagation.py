"""Integration: live changes propagate through sync into query results."""

from datetime import datetime

import pytest

from repro.facade import Dataspace
from repro.imapsim import Attachment, EmailMessage
from repro.rss import FeedEntry


class TestFilesystemPropagation:
    def test_new_file_becomes_queryable(self, generated_tiny):
        ds = Dataspace(vfs=generated_tiny.vfs, imap=generated_tiny.imap)
        ds.sync()
        ds.watch()
        generated_tiny.vfs.write_file(
            "/Projects/PIM/breaking.txt", "zanzibar discovery notes"
        )
        ds.refresh()
        assert len(ds.query('"zanzibar"')) == 1

    def test_new_tex_file_grows_subgraph(self, generated_tiny):
        ds = Dataspace(vfs=generated_tiny.vfs, imap=generated_tiny.imap)
        ds.sync()
        ds.watch()
        generated_tiny.vfs.write_file(
            "/Projects/PIM/fresh.tex",
            r"\begin{document}\section{Novelty}xylophone text\end{document}",
        )
        ds.refresh()
        hits = ds.query('//Novelty[class="latex_section"]')
        assert len(hits) == 1

    def test_deletion_removes_results(self, generated_tiny):
        ds = Dataspace(vfs=generated_tiny.vfs, imap=generated_tiny.imap)
        ds.sync()
        ds.watch()
        generated_tiny.vfs.write_file("/Projects/tmp.txt", "quokka facts")
        ds.refresh()
        assert len(ds.query('"quokka"')) == 1
        generated_tiny.vfs.delete("/Projects/tmp.txt")
        ds.refresh()
        assert len(ds.query('"quokka"')) == 0

    def test_modification_replaces_index_entries(self, generated_tiny):
        ds = Dataspace(vfs=generated_tiny.vfs, imap=generated_tiny.imap)
        ds.sync()
        ds.watch()
        generated_tiny.vfs.write_file("/Projects/v.txt", "veritas one")
        ds.refresh()
        generated_tiny.vfs.write_file("/Projects/v.txt", "mutatis two")
        ds.refresh()
        assert len(ds.query('"veritas"')) == 0
        assert len(ds.query('"mutatis"')) == 1

    @pytest.mark.parametrize("rewritten", ["", "\x00\x01\x02\x03" * 50],
                             ids=["empty", "binary"])
    def test_rewrite_to_unindexed_content_drops_old_postings(
            self, generated_tiny, rewritten):
        ds = Dataspace(vfs=generated_tiny.vfs, imap=generated_tiny.imap)
        ds.sync()
        ds.watch()
        generated_tiny.vfs.write_file("/Projects/a.txt",
                                      "zzuniqueword hello")
        ds.refresh()
        assert ds.query('"zzuniqueword"').uris() == ["fs:///Projects/a.txt"]
        generated_tiny.vfs.write_file("/Projects/a.txt", rewritten)
        ds.refresh()
        assert len(ds.query('"zzuniqueword"')) == 0


class TestEmailPropagation:
    def test_delivered_message_queryable(self, generated_tiny):
        ds = Dataspace(vfs=generated_tiny.vfs, imap=generated_tiny.imap)
        ds.sync()
        ds.watch()
        generated_tiny.imap.deliver("INBOX", EmailMessage(
            subject="urgent flamingo", sender="x@y", to=("z@w",),
            date=datetime(2005, 9, 1), body="flamingo sighting report",
        ))
        ds.refresh()
        assert len(ds.query('"flamingo"')) >= 1

    def test_attachment_subgraph_queryable(self, generated_tiny):
        ds = Dataspace(vfs=generated_tiny.vfs, imap=generated_tiny.imap)
        ds.sync()
        ds.watch()
        generated_tiny.imap.deliver("INBOX", EmailMessage(
            subject="doc", sender="x@y", to=("z@w",),
            date=datetime(2005, 9, 1), body="see attachment",
            attachments=(Attachment(
                "late.tex",
                r"\begin{document}\section{Aardwolf}rare text\end{document}",
            ),),
        ))
        ds.refresh()
        assert len(ds.query('//Aardwolf[class="latex_section"]')) == 1


class TestFeedPropagation:
    def test_new_entry_found_by_polling(self, generated_tiny):
        ds = Dataspace(vfs=generated_tiny.vfs, imap=generated_tiny.imap,
                       feeds=generated_tiny.feeds)
        ds.sync()
        ds.refresh()  # baseline poll
        url = generated_tiny.feeds.urls()[0]
        generated_tiny.feeds.add_entry(url, FeedEntry(
            "brandnew", "Okapi special", "okapi description",
            datetime(2006, 5, 5),
        ))
        ds.refresh()
        assert len(ds.query('"okapi"')) >= 1


class TestLabelsAcrossRefresh:
    def test_descendant_stream_survives_a_relabel(self, generated_tiny):
        """A ``query_iter`` reader drains a ``//`` query while a
        ``refresh()`` between two pulls drops the group replica's label
        snapshot (a folder with files under it goes): the stream
        finishes on the snapshot it started with, without an exception
        and without repeating a row, and the next query sees the
        write."""
        ds = Dataspace(vfs=generated_tiny.vfs, imap=generated_tiny.imap)
        ds.sync()
        ds.watch()
        before = set(ds.query("//*//*").uris())
        replica = ds.rvm.indexes.group_replica
        batches = ds.query_iter("//*//*").batches()
        first = next(batches).uris
        assert replica._labels is not None
        generated_tiny.vfs.delete("/Projects/OLAP", recursive=True)
        ds.refresh()
        assert replica._labels is None  # dropped, rebuilt by a reader
        rows = [*first, *(uri for batch in batches for uri in batch.uris)]
        assert len(rows) == len(set(rows))
        assert set(rows) <= before
        after = set(ds.query("//*//*").uris())
        assert not any("/Projects/OLAP/" in uri for uri in after)
        assert replica._labels is not None
