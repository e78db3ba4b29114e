"""Tests for the query-engine extensions: ranked search and the
indexing-policy fallbacks."""

from datetime import datetime

import pytest

from repro.imapsim import ImapServer
from repro.imapsim.latency import no_latency
from repro.query import QueryProcessor
from repro.query.ranking import ranked_search
from repro.rvm import IndexingPolicy, ResourceViewManager, default_content_converter
from repro.rvm.plugins import FilesystemPlugin
from repro.vfs import VirtualFileSystem

TEX = r"""
\documentclass{article}
\begin{document}
\section{Introduction}
Rare xenolith keyword appears here with database words.
\begin{center}\begin{figure}\caption{Indexing time}\label{f:1}
\end{figure}\end{center}
\section{Conclusions}
systems text, see \ref{f:1}.
\end{document}
"""


@pytest.fixture(scope="module")
def rvm():
    fs = VirtualFileSystem()
    fs.mkdir("/papers/VLDB2006", parents=True)
    fs.write_file("/papers/VLDB2006/a.tex", TEX)
    fs.write_file("/papers/VLDB2006/b.tex",
                  TEX.replace("xenolith", "ordinary"))
    fs.write_file("/papers/notes.txt", "database notes, nothing else")
    manager = ResourceViewManager()
    manager.register_plugin(FilesystemPlugin(
        fs, content_converter=default_content_converter()
    ))
    manager.sync_all()
    return manager


class TestRankedSearch:
    def test_scores_descending(self, rvm):
        hits = ranked_search(rvm, "database indexing", limit=10)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert all(s > 0 for s in scores)

    def test_name_matches_boosted(self, rvm):
        # 'notes.txt' matches "notes" in both name and content; content
        # views that merely mention the word rank below it
        hits = ranked_search(rvm, "notes", limit=5)
        assert hits[0].uri == "fs:///papers/notes.txt"

    def test_limit_respected(self, rvm):
        assert len(ranked_search(rvm, "database", limit=2)) == 2

    def test_within_filters(self, rvm):
        everything = ranked_search(rvm, "database", limit=50)
        only_notes = ranked_search(
            rvm, "database", limit=50,
            within={"fs:///papers/notes.txt"},
        )
        assert len(only_notes) == 1
        assert len(everything) > 1

    def test_no_matches(self, rvm):
        assert ranked_search(rvm, "qqqqq", limit=5) == []


class TestPolicyFallbacks:
    @pytest.fixture(scope="class")
    def pair(self):
        def build(policy):
            fs = VirtualFileSystem()
            fs.mkdir("/docs", parents=True)
            fs.write_file("/docs/a.tex", TEX)
            fs.write_file("/docs/n.txt", "database tuning text")
            manager = ResourceViewManager(policy=policy)
            manager.register_plugin(FilesystemPlugin(
                fs, content_converter=default_content_converter()
            ))
            manager.sync_all()
            return manager

        return build(None), build(IndexingPolicy.minimal())

    @pytest.mark.parametrize("query", [
        '"database tuning"',
        '[size > 10]',
        '//docs//Introduction',
        '//docs//?onclusion*',
    ])
    def test_minimal_policy_equivalent(self, pair, query):
        full, minimal = pair
        full_result = QueryProcessor(full).execute(query)
        minimal_result = QueryProcessor(minimal).execute(query)
        assert set(full_result.uris()) == set(minimal_result.uris())

    def test_minimal_policy_smaller_indexes(self, pair):
        full, minimal = pair
        assert minimal.indexes.total_size_bytes() < \
            full.indexes.total_size_bytes()

    def test_minimal_skips_structures(self, pair):
        _, minimal = pair
        assert minimal.indexes.content_index.document_count == 0
        assert minimal.indexes.name_index.document_count == 0
        assert len(minimal.indexes.tuple_index) == 0
        assert len(minimal.indexes.group_replica) == 0
