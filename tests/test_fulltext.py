"""Tests for the full-text engine (the Lucene substitute)."""

import pytest

from repro.core.errors import FullTextError
from repro.fulltext import (
    Analyzer,
    InvertedIndex,
    Phrase,
    Term,
    Wildcard,
    tokenize,
)
from repro.fulltext.analyzer import DEFAULT_STOPWORDS


@pytest.fixture()
def index():
    idx = InvertedIndex()
    idx.add("d1", "Database tuning is an art. Database systems rule.")
    idx.add("d2", "A database stores structured data collections.")
    idx.add("d3", "Guitar tuning and indexing time both matter.")
    idx.add("d4", "Completely unrelated text about cooking.")
    return idx


class TestAnalyzer:
    def test_lowercases(self):
        assert [t.term for t in tokenize("Hello WORLD")] == ["hello", "world"]

    def test_positions_consecutive(self):
        assert [t.position for t in tokenize("a b c")] == [0, 1, 2]

    def test_punctuation_splits(self):
        assert [t.term for t in tokenize("foo-bar,baz")] == ["foo", "bar", "baz"]

    def test_numbers_kept(self):
        assert [t.term for t in tokenize("VLDB 2006")] == ["vldb", "2006"]

    def test_stopwords_leave_position_gaps(self):
        analyzer = Analyzer(stopwords=DEFAULT_STOPWORDS)
        tokens = list(analyzer.tokens("to be or not to be queried"))
        # the surviving token keeps its original position, so phrases
        # cannot falsely match across removed words
        assert tokens[-1].term == "queried"
        assert tokens[-1].position == 6

    def test_min_length_filter(self):
        analyzer = Analyzer(min_length=3)
        assert analyzer.terms("a bb ccc dddd") == ["ccc", "dddd"]

    def test_max_length_filter(self):
        analyzer = Analyzer(max_length=4)
        assert analyzer.terms("tiny enormousword") == ["tiny"]


class TestIndexWrites:
    def test_add_and_contains(self, index):
        assert "d1" in index
        assert index.document_count == 4

    def test_remove(self, index):
        assert index.remove("d1")
        assert "d1" not in index
        assert Term("art").docs(index) == set()

    def test_remove_missing_returns_false(self, index):
        assert not index.remove("ghost")

    def test_readd_replaces(self, index):
        index.add("d1", "entirely new words")
        assert Term("entirely").keys(index) == {"d1"}
        assert Term("art").keys(index) == set()

    def test_empty_postings_pruned(self):
        idx = InvertedIndex()
        idx.add("only", "solitary")
        idx.remove("only")
        assert idx.term_count == 0

    def test_doc_length_tracked(self, index):
        # "Database tuning is an art. Database systems rule." -> 8 tokens
        assert index.doc_length(index.doc_of("d1")) == 8


class TestPostingsPublishOrder:
    """One writer, many readers (DESIGN.md §4j): a postings list's doc
    set is derived from its ``{doc: positions}`` dict, so a doc becomes
    visible to a reader exactly when its complete positions are stored,
    and a phrase check never finds a listed doc without them."""

    def test_posting_is_complete_before_its_doc_is_visible(self,
                                                           monkeypatch):
        from repro.fulltext import postings as postings_module

        built = []
        keyset_of = postings_module._keyset_of

        def spy(positions):
            # what this build publishes: every doc with the positions it
            # holds at that moment
            built.append({doc: list(positions[doc]) for doc in positions})
            return keyset_of(positions)

        monkeypatch.setattr(postings_module, "_keyset_of", spy)
        idx = InvertedIndex()
        idx.add("spy1", "tuning database tuning tuning")
        doc = idx.doc_of("spy1")
        assert built == []  # writes build nothing
        tuning, database = idx.postings("tuning"), idx.postings("database")
        assert tuning.doc_set().to_list() == [doc]
        assert database.doc_set().to_list() == [doc]
        # each doc became visible holding every position it will hold
        assert built == [{doc: [0, 2, 3]}, {doc: [1]}]
        tuning.doc_set()
        assert len(built) == 2  # no write since: the cached set is served
        idx.add("spy2", "database")
        idx.add("spy1", "database again")  # re-add: leaves, then rejoins
        assert database.doc_set().to_list() == sorted(
            [doc, idx.doc_of("spy2")])
        assert idx.postings("tuning") is None
        assert idx.remove("spy1")
        assert idx.remove("spy2")
        assert idx.term_count == 0


class TestDocSetCache:
    """The epoch rule, driven deterministically: a write that lands
    while :meth:`PostingsList.doc_set` builds is never served stale by
    a later read. No threads, no sleeps — the builder is patched to
    make the write itself."""

    @pytest.mark.parametrize("lands", ["before_snapshot", "after_snapshot"])
    def test_write_during_build_reaches_the_next_read(self, monkeypatch,
                                                      lands):
        from repro.fulltext import postings as postings_module
        from repro.fulltext.postings import PostingsList

        postings = PostingsList("t", {1: [0], 2: [3]})
        keyset_of = postings_module._keyset_of
        raced = []

        def racing_build(positions):
            if raced:
                return keyset_of(positions)
            raced.append(True)
            if lands == "before_snapshot":
                postings.add_doc(7, [1])
                return keyset_of(positions)
            built = keyset_of(positions)
            postings.add_doc(7, [1])
            return built

        monkeypatch.setattr(postings_module, "_keyset_of", racing_build)
        first = postings.doc_set().to_list()
        assert first in ([1, 2], [1, 2, 7])  # either side of the race
        assert postings.doc_set().to_list() == [1, 2, 7]
        assert postings.doc_set() is postings.doc_set()

    def test_removal_during_build_reaches_the_next_read(self, monkeypatch):
        from repro.fulltext import postings as postings_module
        from repro.fulltext.postings import PostingsList

        postings = PostingsList("t", {1: [0], 2: [3]})
        keyset_of = postings_module._keyset_of

        def racing_build(positions):
            built = keyset_of(positions)
            if 2 in positions:
                postings.remove_doc(2)
            return built

        monkeypatch.setattr(postings_module, "_keyset_of", racing_build)
        assert postings.doc_set().to_list() == [1, 2]
        assert postings.doc_set().to_list() == [1]
        # the raced doc is gone from the positions, so a phrase check
        # over the stale set simply finds no match for it
        assert postings.get(2) is None

    def test_readers_beside_one_writer_end_on_the_final_sets(self):
        """Stress, time-bounded: reader threads fill the caches while
        one writer adds and removes; once it stops, every term's set is
        its current keys — a stale cached set would survive here."""
        import sys
        import threading

        idx = InvertedIndex()
        stop = threading.Event()
        errors = []

        def read():
            while not stop.is_set():
                for term in ("alpha", "beta"):
                    postings = idx.postings(term)
                    if postings is None:
                        continue
                    try:
                        postings.doc_set().to_list()
                    except Exception as error:  # noqa: BLE001 - reported
                        errors.append(error)

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for i in range(2000):
                idx.add(f"k{i % 50}", "alpha beta" if i % 3 else "alpha")
                if i % 7 == 0:
                    idx.remove(f"k{i * 3 % 50}")
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        for term in ("alpha", "beta"):
            postings = idx.postings(term)
            assert postings.doc_set().to_list() == postings.doc_ids()


class TestQueries:
    def test_term(self, index):
        assert Term("database").keys(index) == {"d1", "d2"}

    def test_term_case_insensitive(self, index):
        assert Term("DATABASE").docs(index) == Term("database").docs(index)

    def test_unknown_term_empty(self, index):
        assert Term("xyzzy").keys(index) == set()

    def test_phrase(self, index):
        assert Phrase.of("database tuning").keys(index) == {"d1"}

    def test_phrase_requires_adjacency(self, index):
        # d3 has "tuning" and "indexing" but not adjacent in this order
        assert Phrase.of("tuning indexing").keys(index) == set()
        assert Phrase.of("tuning and indexing").keys(index) == {"d3"}

    def test_phrase_subset_of_and(self, index):
        phrase = Phrase.of("database tuning").docs(index)
        conjunction = Term("database").docs(index) & Term("tuning").docs(index)
        assert phrase <= conjunction

    def test_wildcard_prefix(self, index):
        assert Wildcard("index*").keys(index) == {"d3"}

    def test_wildcard_question(self, index):
        assert Wildcard("d?ta").docs(index) == Term("data").docs(index)

    def test_multiword_term_becomes_phrase(self, index):
        # Term("database tuning") analyzes to two tokens -> phrase
        assert Term("database tuning").docs(index) == {
            index.doc_of("d1")
        }


class TestReplicaBehavior:
    def test_non_replica_cannot_return_text(self, index):
        with pytest.raises(FullTextError):
            index.stored_text("d1")

    def test_replica_returns_text(self):
        idx = InvertedIndex(store_text=True)
        idx.add("k", "Original Name")
        assert idx.stored_text("k") == "Original Name"

    def test_stored_items_iterates(self):
        idx = InvertedIndex(store_text=True)
        idx.add("a", "x")
        idx.add("b", "y")
        assert dict(idx.stored_items()) == {"a": "x", "b": "y"}

    def test_stored_items_requires_replica(self, index):
        with pytest.raises(FullTextError):
            list(index.stored_items())


class TestSizeAccounting:
    def test_sizes_grow_with_content(self):
        idx = InvertedIndex()
        idx.add("a", "one two three")
        small = idx.size_bytes()
        idx.add("b", "four five six seven eight nine ten" * 10)
        assert idx.size_bytes() > small

    def test_input_bytes_accumulate(self):
        idx = InvertedIndex()
        idx.add("a", "abcd")
        assert idx.total_input_bytes == 4

    def test_stats_shape(self, index):
        stats = index.stats()
        assert stats.name == "fulltext"
        assert stats.entries == index.document_count
        assert stats.bytes_estimate == index.size_bytes()
        assert stats.detail["terms"] == index.term_count
        assert stats.detail["input_bytes"] == index.total_input_bytes
        assert set(stats.as_dict()) == {
            "name", "entries", "bytes_estimate", "terms", "input_bytes"
        }
