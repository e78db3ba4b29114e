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


_KEYS = st.sampled_from(["w1", "w2", "w3", "w4"])
_SMALL_TEXT = st.lists(st.sampled_from(["data", "base", "tuning", "x", "y"]),
                       max_size=8).map(" ".join)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), _KEYS, _SMALL_TEXT),
    st.tuples(st.just("remove"), _KEYS),
    st.tuples(st.just("read"), st.sampled_from(["data", "base", "x"])),
), min_size=1, max_size=30)


def _keyset_bytes(ids):
    from repro.rvm.keyset import KeySet
    return KeySet.from_iterable(ids).size_bytes()


def _check_against_oracle(index, oracle):
    """``oracle``: key -> {term: positions}, the documents indexed now."""
    doc_of = {key: index.doc_of(key) for key in oracle}
    expected: dict[str, dict[int, list[int]]] = {}
    for key, terms in oracle.items():
        for term, positions in terms.items():
            expected.setdefault(term, {})[doc_of[key]] = positions
    assert index.all_doc_ids() == sorted(doc_of.values())
    assert set(index.terms_matching(lambda term: True)) == set(expected)
    for term, by_doc in expected.items():
        postings = index.postings(term)
        assert postings.doc_set().to_list() == sorted(by_doc)
        assert list(postings) == sorted(by_doc.items())
        assert len(postings) == len(by_doc)
    assert index.size_bytes() == (
        sum(len(term.encode("utf-8")) + 8 for term in expected)
        + sum(_keyset_bytes(by_doc)
              + 4 * sum(map(len, by_doc.values()))
              for by_doc in expected.values())
        + _keyset_bytes(doc_of.values()) + 12 * len(doc_of))


class TestWritesAgainstOracle:
    @given(_OPS)
    @settings(max_examples=150, deadline=None)
    def test_add_readd_remove_with_reads_between(self, ops):
        """Reads between writes fill each term's cached doc set; after
        every step the index still equals a dict/set oracle."""
        index = InvertedIndex()
        oracle: dict[str, dict[str, list[int]]] = {}
        for op in ops:
            if op[0] == "add":
                _, key, text = op
                index.add(key, text)
                oracle[key] = DEFAULT_ANALYZER.positions(text)
            elif op[0] == "remove":
                assert index.remove(op[1]) == (oracle.pop(op[1], None)
                                               is not None)
            else:
                postings = index.postings(op[1])
                if postings is not None:
                    postings.doc_set()
            _check_against_oracle(index, oracle)
