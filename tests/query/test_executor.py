"""Tests for iQL planning, optimization and execution over a small RVM."""

from datetime import datetime

import pytest

from repro.core.errors import QueryExecutionError, StreamingUnsupportedError
from repro.imapsim import Attachment, EmailMessage, ImapServer
from repro.imapsim.latency import no_latency
from repro.query import QueryProcessor
from repro.query.optimizer import optimize
from repro.query.plan import (
    AllViews,
    ClassLookup,
    Complement,
    ContentSearch,
    Intersect,
    NameEquals,
    NamePattern,
    Union,
    wildcard_regex,
)
from repro.rvm import ResourceViewManager, default_content_converter
from repro.rvm.plugins import FilesystemPlugin, ImapPlugin
from repro.vfs import VirtualFileSystem

PAPER_TEX = r"""
\documentclass{article}
\begin{document}
\section{Introduction}\label{s:i}
Working with Mike Franklin on dataspaces and database topics.
\section{The Grand Vision}
Franklin outlines the plan.
\begin{center}\begin{figure}\caption{Indexing time}\label{fig:one}
\end{figure}\end{center}
\section{Conclusions}
Wonderful systems everywhere, see \ref{fig:one}. Useful documents.
\end{document}
"""


@pytest.fixture(scope="module")
def rvm():
    fs = VirtualFileSystem()
    fs.mkdir("/papers/VLDB2006", parents=True)
    fs.mkdir("/papers/VLDB2005", parents=True)
    fs.write_file("/papers/VLDB2006/main.tex", PAPER_TEX)
    fs.write_file("/papers/VLDB2005/old.tex",
                  r"\begin{document}\section{Intro}"
                  r"Old documents about database tuning.\end{document}")
    fs.write_file("/papers/big.log", "x" * 500_000)
    fs.write_file("/notes.txt", "database tuning every day")

    imap = ImapServer(latency=no_latency())
    imap.deliver("INBOX", EmailMessage(
        subject="review", sender="a@b", to=("c@d",),
        date=datetime(2005, 3, 1), body="database comments",
        attachments=(Attachment("main.tex", PAPER_TEX),),
    ))

    manager = ResourceViewManager()
    converter = default_content_converter()
    manager.register_plugin(FilesystemPlugin(fs,
                                             content_converter=converter))
    manager.register_plugin(ImapPlugin(imap, content_converter=converter))
    manager.sync_all()
    return manager


@pytest.fixture(scope="module")
def qp(rvm):
    return QueryProcessor(rvm,
                          reference_datetime=datetime(2005, 12, 31))


class TestKeywordQueries:
    def test_single_keyword(self, qp):
        result = qp.execute('"database"')
        assert len(result) >= 4

    def test_phrase(self, qp):
        result = qp.execute('"database tuning"')
        uris = set(result.uris())
        assert "fs:///notes.txt" in uris
        assert not any("VLDB2006" in u for u in uris)

    def test_and_keywords(self, qp):
        both = qp.execute('"database" and "tuning"')
        phrase = qp.execute('"database tuning"')
        assert set(phrase.uris()) <= set(both.uris())

    def test_or(self, qp):
        result = qp.execute('"tuning" or "Franklin"')
        assert len(result) >= 3

    def test_not(self, qp):
        everything = len(qp.rvm.catalog)
        no_db = qp.execute('not "database"')
        with_db = qp.execute('"database"')
        assert len(no_db) == everything - len(with_db)


class TestTuplePredicates:
    def test_size_threshold(self, qp):
        result = qp.execute("[size > 420000]")
        assert "fs:///papers/big.log" in result.uris()

    def test_size_and_date(self, qp):
        result = qp.execute("[size > 420000 and lastmodified < @12.06.2005]")
        assert "fs:///papers/big.log" in result.uris()

    def test_date_function(self, qp):
        result = qp.execute("[lastmodified < yesterday()]")
        assert len(result) > 0

    def test_lastmodified_alias(self, qp):
        explicit = qp.execute("[modified < yesterday()]")
        aliased = qp.execute("[lastmodified < yesterday()]")
        assert set(explicit.uris()) == set(aliased.uris())

    def test_equality_on_label(self, qp):
        result = qp.execute('[label = "fig:one"]')
        assert len(result) == 2  # figure view on fs and in the attachment

    def test_unknown_function_raises(self, qp):
        with pytest.raises(QueryExecutionError):
            qp.execute("[modified < fortnight()]")


class TestPathQueries:
    def test_name_and_class(self, qp):
        result = qp.execute('//Introduction[class="latex_section"]')
        assert len(result) == 2  # file + attachment copies

    def test_descendant_scoping(self, qp):
        scoped = qp.execute('//VLDB2006//Introduction')
        assert len(scoped) == 1
        assert scoped.hits[0].uri.startswith("fs:///papers/VLDB2006/")

    def test_intro_example1(self, qp):
        result = qp.execute(
            '//papers//Introduction[class="latex_section" and "Mike Franklin"]'
        )
        assert len(result) == 1

    def test_wildcard_names(self, qp):
        result = qp.execute('//papers//*Vision')
        assert len(result) == 1
        assert result.hits[0].name == "The Grand Vision"

    def test_child_axis(self, qp):
        result = qp.execute('//papers//*Vision/*["Franklin"]')
        assert len(result) == 1
        assert result.hits[0].class_name == "latex_text"

    def test_question_mark_wildcard(self, qp):
        result = qp.execute('//VLDB200?//?onclusion*/*["systems"]')
        assert len(result) == 1

    def test_class_subclass_semantics(self, qp):
        environments = qp.execute('//VLDB2006//*[class="environment"]')
        figures = qp.execute('//VLDB2006//*[class="figure"]')
        assert set(figures.uris()) <= set(environments.uris())
        assert len(environments) > len(figures)

    def test_leading_child_axis_roots(self, qp):
        result = qp.execute('/*')
        # roots: fs root folder + INBOX
        names = {h.name for h in result.hits}
        assert "INBOX" in names

    def test_empty_result(self, qp):
        assert len(qp.execute("//NoSuchNameAnywhere")) == 0


class TestCompound:
    def test_union_dedups(self, qp):
        result = qp.execute(
            'union( //VLDB2005//*["documents"], //VLDB2005//*["documents"])'
        )
        solo = qp.execute('//VLDB2005//*["documents"]')
        assert len(result) == len(solo)

    def test_union_combines(self, qp):
        result = qp.execute(
            'union( //VLDB2005//*["documents"], //VLDB2006//*["documents"])'
        )
        assert len(result) >= 2

    def test_intersect(self, qp):
        result = qp.execute('intersect( "database", "tuning" )')
        both = qp.execute('"database" and "tuning"')
        assert set(result.uris()) == set(both.uris())


class TestJoins:
    def test_q7_shape(self, qp):
        result = qp.execute(
            'join( //VLDB2006//*[class="texref"] as A, '
            '//VLDB2006//*[class="environment"]//figure* as B, '
            "A.name = B.tuple.label )"
        )
        assert len(result) == 1
        pair = result.pairs[0]
        assert pair.left.name == "fig:one"
        assert pair.right.name.startswith("figure")

    def test_q8_cross_subsystem(self, qp):
        result = qp.execute(
            'join ( //*[class = "emailmessage"]//*.tex as A, '
            "//papers//*.tex as B, A.name = B.name )"
        )
        assert len(result) == 1
        pair = result.pairs[0]
        assert pair.left.uri.startswith("imap://")
        assert pair.right.uri.startswith("fs:///papers/")

    def test_join_tracks_expansion_effort(self, qp):
        result = qp.execute(
            'join ( //*[class = "emailmessage"]//*.tex as A, '
            "//papers//*.tex as B, A.name = B.name )"
        )
        assert result.expanded_views > 0
        assert result.is_join

    def test_join_inequality(self, qp):
        result = qp.execute(
            'join( //VLDB2006//Introduction as A, '
            "//VLDB2005//Intro as B, A.name != B.name )"
        )
        assert len(result) == 1


class TestOptimizer:
    def test_intersect_ordered_by_cost(self):
        plan = optimize(Intersect((
            ContentSearch(text="x"),
            ClassLookup(class_name="file"),
            NamePattern(pattern="*x"),
        )))
        costs = [p.COST for p in plan.parts]
        assert costs == sorted(costs)
        assert isinstance(plan.parts[0], ClassLookup)

    def test_nested_intersects_flattened(self):
        plan = optimize(Intersect((
            Intersect((NameEquals(name="a"), NameEquals(name="b"))),
            NameEquals(name="c"),
        )))
        assert len(plan.parts) == 3

    def test_allviews_dropped_from_intersect(self):
        plan = optimize(Intersect((AllViews(), NameEquals(name="a"))))
        assert isinstance(plan, NameEquals)

    def test_double_negation_eliminated(self):
        plan = optimize(Complement(Complement(NameEquals(name="a"))))
        assert isinstance(plan, NameEquals)

    def test_unions_flattened(self):
        plan = optimize(Union((
            Union((NameEquals(name="a"), NameEquals(name="b"))),
            NameEquals(name="c"),
        )))
        assert len(plan.parts) == 3

    def test_explain_produces_tree(self, qp):
        text = qp.explain('//PIM//Introduction[class="latex_section"]')
        assert "ExpandStep" in text
        assert "ClassLookup" in text

    def test_wildcard_regex(self):
        assert wildcard_regex("?onclusion*").match("Conclusions")
        assert wildcard_regex("*.tex").match("main.tex")
        assert not wildcard_regex("*.tex").match("main.texx")


class TestResultShape:
    def test_hits_sorted_and_described(self, qp):
        result = qp.execute('"database"')
        uris = result.uris()
        assert uris == sorted(uris)
        assert all(isinstance(h.name, str) for h in result.hits)

    def test_elapsed_recorded(self, qp):
        assert qp.execute('"database"').elapsed_seconds > 0

    def test_hit_resolves_view(self, qp, rvm):
        result = qp.execute('//notes.txt')
        view = result.hits[0].view(rvm)
        assert view is not None and "tuning" in view.text()

    def test_result_carries_its_batches(self, qp):
        """The answer is one ordered key column with its view pinned;
        the streamed batches of the same query concatenate to it."""
        result = qp.execute('"database"')
        column = result.column
        assert column.ordered and list(column.keys) == sorted(set(column.keys))
        assert list(column.uris) == result.uris()
        streamed = {uri for batch in qp.execute_iter('"database"').batches()
                    for uri in batch.uris}
        assert streamed == set(result.uris())


class TestResultContract:
    """A unary answer is its key column: what the caller does not ask
    for is not computed, and what it asks for later is still right."""

    def test_counting_and_limiting_decode_nothing(self, qp):
        from repro.rvm.uridict import global_uri_dictionary
        dictionary = global_uri_dictionary()
        qp.execute('"database"')  # any pending remap happens here
        before = dictionary.lookups
        full = qp.execute('"database"')
        limited = qp.execute('"database"', limit=2)
        assert len(full) >= 4 and len(limited) == 2
        assert dictionary.lookups == before
        assert set(limited.uris()) <= set(full.uris())
        # decoding is counted once per result, however often it is read
        assert dictionary.lookups == before + len(limited) + len(full)
        full.uris(), full.hits, limited.hits
        assert dictionary.lookups == before + len(limited) + len(full)

    def test_lazy_hits_are_the_eager_list(self, qp):
        """``hits`` is built on first read; it is the list the executor
        used to build for every execution: one catalog-described
        ``Hit`` per distinct URI, in URI order."""
        result = qp.execute('//*.tex')
        eager = sorted((qp._hit(uri) for uri in set(result.uris())),
                       key=lambda hit: hit.uri)
        assert result.hits == eager and len(eager) == len(result)
        assert result.hits is result.hits  # kept, not rebuilt
        assert {hit.name for hit in result.hits} == {"main.tex", "old.tex"}

    def test_uris_returns_a_private_list(self, qp):
        result = qp.execute('"database"')
        first = result.uris()
        first.clear()  # a caller's edit must not reach the next reader
        assert len(result.uris()) == len(result) > 0

    def test_one_result_read_from_two_threads(self, qp):
        """The service's result cache hands one ``QueryResult`` to many
        request threads: their first reads may race, and every reader
        must still see the whole answer."""
        import threading
        expected = qp.execute('"database"').uris()
        for _ in range(20):
            shared = qp.execute('"database"')
            barrier = threading.Barrier(2)
            seen: list = []

            def read():
                barrier.wait(timeout=10)
                seen.append((shared.uris(), [h.uri for h in shared.hits],
                             len(shared)))

            threads = [threading.Thread(target=read) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert seen == [(expected, expected, len(expected))] * 2

    def test_result_outlives_a_dictionary_remap(self, qp):
        """The column pins the dictionary view it was bound through: a
        remap that shifts every rank afterwards cannot change what an
        undecoded (say, cached) result decodes to."""
        import uuid
        from repro.rvm.uridict import global_uri_dictionary
        dictionary = global_uri_dictionary()
        held = qp.execute('"database"')  # not decoded yet
        version = dictionary.view().version
        # new URIs that sort before, between and after the corpus's
        dictionary.intern_many([f"{scheme}://remap/{uuid.uuid4().hex}"
                                for scheme in ("aaa", "fs", "imap", "zzz")])
        fresh = qp.execute('"database"')  # remaps, binds to new keys
        assert dictionary.view().version > version
        assert held.column.view is not fresh.column.view
        assert list(held.column.keys) != list(fresh.column.keys)
        assert held.uris() == fresh.uris()
        assert held.hits == fresh.hits


class TestJoinResultShape:
    """Pins the ``__len__``/``uris()`` contract for joins. The old
    asymmetry: ``len()`` counted pairs while ``uris()`` read the unary
    hit list — always empty for a join."""

    QUERY = ('join ( //*[class = "emailmessage"]//*.tex as A, '
             "//papers//*.tex as B, A.name = B.name )")

    def test_len_counts_pairs_and_uris_lists_pair_members(self, qp):
        result = qp.execute(self.QUERY)
        assert result.is_join
        assert len(result) == len(result.pairs) == 1
        members = {hit.uri for pair in result.pairs
                   for hit in (pair.left, pair.right)}
        assert set(result.uris()) == members
        assert result.uris() == sorted(result.uris())

    def test_empty_join_counts_zero_not_the_hit_list(self, qp):
        result = qp.execute(
            'join( //no_such_name as A, //also_missing as B, '
            "A.name = B.name )"
        )
        assert result.is_join
        assert len(result) == 0
        assert result.uris() == []


class TestLimit:
    def test_limit_caps_the_result(self, qp):
        full = qp.execute('"database"')
        limited = qp.execute('"database"', limit=2)
        assert len(limited) == 2
        assert set(limited.uris()) <= set(full.uris())

    def test_limit_zero(self, qp):
        assert len(qp.execute('"database"', limit=0)) == 0

    def test_limit_applies_to_joins(self, qp):
        result = qp.execute(TestJoinResultShape.QUERY, limit=0)
        assert result.is_join and len(result) == 0


class TestStreaming:
    def test_execute_iter_matches_materialized_execution(self, qp):
        streamed = list(qp.execute_iter('"database"'))
        assert len(streamed) == len(set(streamed))  # distinct rows
        assert sorted(streamed) == qp.execute('"database"').uris()

    def test_abandoning_the_stream_closes_it(self, qp):
        from repro.query.engine import EngineConfig
        stream = qp.execute_iter("//*e*", engine=EngineConfig(batch_size=2))
        batches = stream.batches()
        first = next(batches)
        assert first.uris
        stream.close()
        assert next(batches, None) is None  # generator is closed

    def test_execute_iter_rejects_joins(self, qp):
        # the dedicated subclass: callers fall back to the materialized
        # path on this without swallowing real execution failures
        with pytest.raises(StreamingUnsupportedError):
            qp.execute_iter(TestJoinResultShape.QUERY)

    def test_streaming_respects_limit(self, qp):
        assert len(list(qp.execute_iter('"database"', limit=3))) == 3
