"""Tests for saving/loading the RVM state."""

import json
from datetime import datetime

import pytest

from repro.core.errors import StoreError
from repro.imapsim import Attachment, EmailMessage, ImapServer
from repro.imapsim.latency import no_latency
from repro.query import QueryProcessor
from repro.rvm import ResourceViewManager, default_content_converter
from repro.rvm.keyset import SPARSE_MAX
from repro.rvm.persistence import load_state, save_state
from repro.rvm.plugins import FilesystemPlugin, ImapPlugin
from repro.vfs import VirtualFileSystem

TEX = r"""
\begin{document}
\section{Introduction}\label{s1}
Durable dataspace indexing with database tuning.
\begin{center}\begin{figure}\caption{Indexing time}\label{f1}
\end{figure}\end{center}
\section{Conclusions}
persistent systems, see \ref{f1}.
\end{document}
"""


@pytest.fixture()
def populated_rvm():
    fs = VirtualFileSystem()
    fs.mkdir("/papers/VLDB2006", parents=True)
    fs.write_file("/papers/VLDB2006/p.tex", TEX)
    fs.write_file("/papers/notes.txt", "database tuning notes")
    imap = ImapServer(latency=no_latency())
    imap.deliver("INBOX", EmailMessage(
        subject="draft", sender="a@b", to=("c@d",),
        date=datetime(2005, 5, 1), body="database text",
        attachments=(Attachment("p.tex", TEX),),
    ))
    rvm = ResourceViewManager()
    converter = default_content_converter()
    rvm.register_plugin(FilesystemPlugin(fs, content_converter=converter))
    rvm.register_plugin(ImapPlugin(imap, content_converter=converter))
    rvm.sync_all()
    return rvm


QUERIES = [
    '"database tuning"',
    '//Introduction[class="latex_section"]',
    '[size > 100]',
    '//papers//?onclusion*',
    'join( //papers//*[class="texref"] as A, '
    '//papers//*[class="environment"]//figure* as B, '
    "A.name = B.tuple.label )",
]


class TestRoundTrip:
    def test_manifest_written(self, populated_rvm, tmp_path):
        manifest = save_state(populated_rvm, tmp_path)
        assert manifest["format_version"] == 1
        assert manifest["counts"]["catalog"] == len(populated_rvm.catalog)
        assert (tmp_path / "manifest.json").exists()

    def test_catalog_restored(self, populated_rvm, tmp_path):
        save_state(populated_rvm, tmp_path)
        restored = ResourceViewManager()
        load_state(restored, tmp_path)
        assert len(restored.catalog) == len(populated_rvm.catalog)
        original = populated_rvm.catalog.get("fs:///papers/notes.txt")
        loaded = restored.catalog.get("fs:///papers/notes.txt")
        assert loaded == original

    def test_queries_equivalent_after_restore(self, populated_rvm, tmp_path):
        save_state(populated_rvm, tmp_path)
        restored = ResourceViewManager()
        load_state(restored, tmp_path)
        before = QueryProcessor(populated_rvm)
        after = QueryProcessor(restored)
        for query in QUERIES:
            original = before.execute(query)
            loaded = after.execute(query)
            if original.pairs:
                assert [(p.left.uri, p.right.uri) for p in original.pairs] \
                    == [(p.left.uri, p.right.uri) for p in loaded.pairs]
            else:
                assert original.uris() == loaded.uris(), query

    def test_index_sizes_comparable(self, populated_rvm, tmp_path):
        save_state(populated_rvm, tmp_path)
        restored = ResourceViewManager()
        load_state(restored, tmp_path)
        original = populated_rvm.index_size_report()
        loaded = restored.index_size_report()
        assert loaded["net_input"] == original["net_input"]
        assert loaded["group"] == original["group"]

    def test_tuple_values_preserve_types(self, populated_rvm, tmp_path):
        save_state(populated_rvm, tmp_path)
        restored = ResourceViewManager()
        load_state(restored, tmp_path)
        component = restored.indexes.tuple_index.tuple_of(
            "fs:///papers/notes.txt"
        )
        assert isinstance(component.get("modified"), datetime)
        assert isinstance(component.get("size"), int)

    def test_content_query_survives(self, populated_rvm, tmp_path):
        save_state(populated_rvm, tmp_path)
        restored = ResourceViewManager()
        load_state(restored, tmp_path)
        original = QueryProcessor(populated_rvm).execute('"database"')
        loaded = QueryProcessor(restored).execute('"database"')
        assert len(original) > 1
        assert loaded.uris() == original.uris()


def _content_state(content):
    return {
        term: (content.postings(term).doc_ids(),
               {content.key_of(doc): positions
                for doc, positions in content.postings(term)})
        for term in content.terms_matching(lambda term: True)
    }, {content.key_of(doc): content.doc_length(doc)
        for doc in content.all_doc_ids()}


class TestContentPostingsRoundTrip:
    def test_postings_positions_and_lengths_including_a_dense_term(
            self, tmp_path):
        """Every postings list is bulk-built on load. "common" is in
        more than twice SPARSE_MAX documents with consecutive ids, so
        one 65 536-wide chunk of its doc set holds more than SPARSE_MAX
        of them: the load packs a dense chunk."""
        rvm = ResourceViewManager()
        content = rvm.indexes.content_index
        for i in range(2 * SPARSE_MAX + 8):
            content.add(f"fs:///dense/{i}",
                        f"common w{i % 7} common x{i % 3} " * (1 + i % 2))
        save_state(rvm, tmp_path)
        restored = ResourceViewManager()
        load_state(restored, tmp_path)
        loaded = restored.indexes.content_index

        assert loaded.postings("common").doc_set().chunk_layout()["dense"] >= 1
        assert loaded.postings("common").doc_set() \
            == content.postings("common").doc_set()
        assert _content_state(loaded) == _content_state(content)
        assert loaded.postings("common").get(
            loaded.doc_of("fs:///dense/1")) == [0, 2, 4, 6]
        assert loaded.size_bytes() == content.size_bytes()


class TestErrors:
    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(StoreError):
            load_state(ResourceViewManager(), tmp_path / "nope")

    def test_load_wrong_version(self, populated_rvm, tmp_path):
        save_state(populated_rvm, tmp_path)
        (tmp_path / "manifest.json").write_text('{"format_version": 99}')
        with pytest.raises(StoreError):
            load_state(ResourceViewManager(), tmp_path)

    def test_load_refuses_a_hand_edited_catalog_row(self, populated_rvm,
                                                    tmp_path):
        save_state(populated_rvm, tmp_path)
        path = tmp_path / "catalog.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[0]["size"] = "big"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(StoreError, match="size"):
            load_state(ResourceViewManager(), tmp_path)

    def test_load_into_non_empty_rvm_refused(self, populated_rvm, tmp_path):
        save_state(populated_rvm, tmp_path)
        with pytest.raises(StoreError, match="non-empty"):
            load_state(populated_rvm, tmp_path)


class TestCrashSafety:
    def test_save_replaces_previous_snapshot_atomically(self, populated_rvm,
                                                        tmp_path):
        target = tmp_path / "snap"
        save_state(populated_rvm, target)
        first = (target / "manifest.json").read_text()
        save_state(populated_rvm, target)
        assert (target / "manifest.json").read_text() == first
        # no staging or old directories left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap"]

    def test_failed_save_leaves_target_untouched(self, populated_rvm,
                                                 tmp_path, monkeypatch):
        target = tmp_path / "snap"
        save_state(populated_rvm, target)
        manifest = (target / "manifest.json").read_text()

        from repro.rvm import persistence

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(persistence, "_write_snapshot", explode)
        with pytest.raises(OSError):
            save_state(populated_rvm, target)
        # the old snapshot is intact and still loads
        assert (target / "manifest.json").read_text() == manifest
        restored = ResourceViewManager()
        load_state(restored, target)
        assert len(restored.catalog) == len(populated_rvm.catalog)
