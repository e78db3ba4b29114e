"""Tests for the query-engine extension: ranked search."""

import pytest

from repro.query.ranking import ranked_search
from repro.rvm import ResourceViewManager, default_content_converter
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

