"""Property-based tests: full-text engine invariants."""

import string

from hypothesis import given, settings, strategies as st

from repro.fulltext import InvertedIndex, Phrase, Term, Wildcard
from repro.fulltext.analyzer import DEFAULT_ANALYZER

_WORDS = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
_DOCS = st.lists(
    st.lists(_WORDS, min_size=1, max_size=20).map(" ".join),
    min_size=1, max_size=12,
)


def _build(texts):
    index = InvertedIndex()
    for position, text in enumerate(texts):
        index.add(f"d{position}", text)
    return index


class TestRetrievalCompleteness:
    @given(_DOCS)
    @settings(max_examples=100, deadline=None)
    def test_every_token_is_findable(self, texts):
        """Any document containing a token is returned for that token."""
        index = _build(texts)
        for position, text in enumerate(texts):
            for term in set(DEFAULT_ANALYZER.terms(text)):
                assert f"d{position}" in Term(term).keys(index)

    @given(_DOCS)
    @settings(max_examples=100, deadline=None)
    def test_no_false_positives(self, texts):
        index = _build(texts)
        vocabulary = {t for text in texts for t in DEFAULT_ANALYZER.terms(text)}
        for term in vocabulary:
            for key in Term(term).keys(index):
                doc_terms = DEFAULT_ANALYZER.terms(
                    texts[int(key[1:])]
                )
                assert term in doc_terms


class TestAlgebraicLaws:
    @given(_DOCS, _WORDS, _WORDS)
    @settings(max_examples=100, deadline=None)
    def test_phrase_subset_of_conjunction(self, texts, w1, w2):
        index = _build(texts)
        phrase = Phrase((w1, w2)).docs(index)
        conjunction = Term(w1).docs(index) & Term(w2).docs(index)
        assert phrase <= conjunction

    @given(_DOCS)
    @settings(max_examples=50, deadline=None)
    def test_two_word_phrases_match_adjacent_pairs(self, texts):
        index = _build(texts)
        for position, text in enumerate(texts):
            terms = DEFAULT_ANALYZER.terms(text)
            for left, right in zip(terms, terms[1:]):
                assert f"d{position}" in Phrase((left, right)).keys(index)


class TestKeysetFormMatchesSetForm:
    """Every query leaf answers twice: ``docs`` (plain ``set[int]``,
    positions checked per document — the reference) and ``ids`` (keyset
    algebra over the postings' doc sets — what the engine consumes).
    They must be the same set, on corpora that had documents removed."""

    #: a two-letter alphabet: repeated words, so multi-term phrases hit
    _SMALL = st.lists(
        st.lists(st.sampled_from(["ab", "ba", "aa", "b", "abab"]),
                 min_size=1, max_size=12).map(" ".join),
        min_size=1, max_size=10,
    )

    @given(_SMALL, st.sets(st.integers(0, 9), max_size=4),
           st.lists(st.sampled_from(["ab", "ba", "aa", "b", "abab", "zz"]),
                    min_size=3, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_ids_equal_docs_for_every_node(self, texts, removed, words):
        index = _build(texts)
        for position in removed:
            index.remove(f"d{position}")
        w1, w2, w3 = words
        leaves = [Term(w1), Term(f"{w1} {w2}"),  # analyzes to a phrase
                  Phrase(()), Phrase((w1,)), Phrase((w1, w2)),
                  Phrase((w1, w2, w3)), Phrase((w1, w1)),
                  Wildcard(f"{w1[0]}*"), Wildcard("?b*"), Wildcard("zz*"),
                  Wildcard(f"{w2[0]}?")]
        for leaf in leaves:
            assert leaf.ids(index).to_list() == sorted(leaf.docs(index)), leaf


class TestRemovalInvariants:
    @given(_DOCS)
    @settings(max_examples=50, deadline=None)
    def test_removed_docs_never_returned(self, texts):
        index = _build(texts)
        index.remove("d0")
        vocabulary = {t for text in texts for t in DEFAULT_ANALYZER.terms(text)}
        for term in vocabulary:
            assert "d0" not in Term(term).keys(index)

    @given(_DOCS)
    @settings(max_examples=50, deadline=None)
    def test_add_remove_restores_emptiness(self, texts):
        index = InvertedIndex()
        for position, text in enumerate(texts):
            index.add(f"d{position}", text)
        for position in range(len(texts)):
            index.remove(f"d{position}")
        assert index.document_count == 0
        assert index.term_count == 0
