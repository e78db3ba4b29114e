"""Property-based tests: the analyzer's word split and whole-document
indexing against a character-at-a-time, token-at-a-time reference.

The analyzer finds words with one regular expression and indexes a
document as one ``{term: positions}`` map; the reference below is the
per-character ``isalnum`` loop and the per-token postings append they
replaced, kept here as the specification.
"""

import os
import string

from hypothesis import given, settings, strategies as st

from repro.fulltext import Analyzer, InvertedIndex, Token
from repro.fulltext.analyzer import _WORD, DEFAULT_STOPWORDS
from repro.fulltext.postings import PostingsList

#: full count under CI's derandomized profile, a sample locally (see
#: tests/conftest.py for the profiles)
_EXAMPLES = 1000 if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 150

#: an underscore (a regex word character that is not alphanumeric), a
#: combining mark, "\u0130" (two code points once lowercased), a superscript
#: two and an Arabic-Indic three (both alphanumeric, not ASCII digits)
_TRICKY = ["_", "\u0301", "\u0130", "\u00b2", "\u0663", " ", "-", "a", "Z"]
_WORDS = st.sampled_from(["data", "base", "Data", "tuning", "x", "_", "ab_c",
                          "\u0130", "\u00b2", "\u0663"])
#: few distinct words, so terms repeat within a document
_VOCABULARY_TEXT = st.lists(
    st.tuples(_WORDS, st.sampled_from([" ", "-", ". ", "_"])), max_size=25,
).map(lambda pairs: "".join(word + sep for word, sep in pairs))
_TEXT = st.one_of(
    st.text(alphabet=st.one_of(
        st.characters(exclude_categories=()),  # every code point
        st.sampled_from(_TRICKY),
    )),
    _VOCABULARY_TEXT,
)


def _reference_words(text):
    """The word split the regex replaced: maximal ``isalnum`` runs."""
    word = []
    for ch in text:
        if ch.isalnum():
            word.append(ch)
        elif word:
            yield "".join(word)
            word.clear()
    if word:
        yield "".join(word)


def _reference_tokens(analyzer, text):
    for position, word in enumerate(_reference_words(text)):
        term = word.lower() if analyzer.lowercase else word
        if not analyzer.min_length <= len(term) <= analyzer.max_length:
            continue
        if term in analyzer.stopwords:
            continue
        yield Token(term, position)


def _reference_add(index, key, text):
    """``InvertedIndex.add`` one token at a time."""
    doc = index._dictionary.intern(key)
    if doc in index._doc_lengths:
        index._remove_doc(doc)
    held = []
    length = 0
    for token in _reference_tokens(index.analyzer, text):
        postings = index._terms.get(token.term)
        if postings is None:
            postings = index._terms[token.term] = PostingsList(token.term)
        positions = postings.get(doc)
        if positions is None:
            postings.add_doc(doc, [token.position])
            held.append(postings)
        else:
            positions.append(token.position)
        length += 1
    index._doc_postings[doc] = tuple(held)
    index._doc_lengths[doc] = length
    index._total_input_bytes += len(text.encode("utf-8", "replace"))
    if index.store_text:
        index._stored_text[doc] = text


@st.composite
def _analyzers(draw, text):
    """An analyzer whose stopwords may include words of ``text``."""
    words = sorted({w.lower() for w in _reference_words(text)})
    stopwords = draw(st.one_of(
        st.none(), st.just(DEFAULT_STOPWORDS),
        st.sets(st.sampled_from(words)) if words else st.just(set()),
    ))
    min_length = draw(st.integers(0, 3))
    return Analyzer(stopwords=stopwords, lowercase=draw(st.booleans()),
                    min_length=min_length,
                    max_length=min_length + draw(st.integers(0, 6)))


def test_word_characters_are_exactly_the_alphanumeric_ones():
    every_code_point = "".join(map(chr, range(0x110000)))
    assert "".join(_WORD.findall(every_code_point)) \
        == "".join(filter(str.isalnum, every_code_point))


class TestAnalyzerMatchesReference:
    @given(text=_TEXT, data=st.data())
    @settings(max_examples=_EXAMPLES, deadline=None)
    def test_tokens_terms_and_positions(self, text, data):
        analyzer = data.draw(_analyzers(text))
        expected = list(_reference_tokens(analyzer, text))
        assert list(analyzer.tokens(text)) == expected
        assert analyzer.terms(text) == [token.term for token in expected]
        positions = {}
        for token in expected:
            positions.setdefault(token.term, []).append(token.position)
        # same terms, same first-occurrence order, same positions
        assert list(analyzer.positions(text).items()) \
            == list(positions.items())

    def test_default_analyzer_on_the_tricky_characters(self):
        text = "snake_case caf\u00e9 \u0130stanbul x\u00b2 \u0663\u0663 \u0301a"
        # "\u0130" lowercases to "i" + a combining dot, which stays in
        # the term: words are split before they are lowercased
        expected = ["snake", "case", "caf\u00e9", "i\u0307stanbul",
                    "x\u00b2", "\u0663\u0663", "a"]
        assert Analyzer().terms(text) == expected
        assert [t.term for t in _reference_tokens(Analyzer(), text)] \
            == expected


_KEYS = st.sampled_from(["pa", "pb", "pc", "pd"])
_DOCUMENTS = st.lists(st.tuples(_KEYS, _VOCABULARY_TEXT),
                      min_size=1, max_size=10)


def _snapshot(index):
    terms = list(index.terms_matching(lambda term: True))
    return {
        "terms": terms,
        "postings": {
            term: (index.postings(term).doc_set(),
                   list(index.postings(term)))
            for term in terms
        },
        "lengths": {doc: index.doc_length(doc)
                    for doc in index.all_doc_ids()},
        "input_bytes": index.total_input_bytes,
        "size": index.size_bytes(),
    }


class TestIndexMatchesReference:
    @given(documents=_DOCUMENTS, store_text=st.booleans(),
           removed=st.sets(_KEYS, max_size=2))
    @settings(max_examples=_EXAMPLES // 2, deadline=None)
    def test_whole_document_add_equals_token_at_a_time(self, documents,
                                                      store_text, removed):
        # keys repeat: re-adding a document replaces it
        index = InvertedIndex(store_text=store_text)
        reference = InvertedIndex(store_text=store_text)
        for key, text in documents:
            index.add(key, text)
            _reference_add(reference, key, text)
            assert _snapshot(index) == _snapshot(reference)
        for key in removed:
            assert index.remove(key) == reference.remove(key)
        assert _snapshot(index) == _snapshot(reference)

    @given(text=st.text(alphabet=string.ascii_letters + " _-", max_size=80))
    @settings(max_examples=_EXAMPLES // 2, deadline=None)
    def test_stopword_analyzer_index(self, text):
        analyzer = Analyzer(stopwords=DEFAULT_STOPWORDS, min_length=2)
        index = InvertedIndex(analyzer=analyzer)
        reference = InvertedIndex(analyzer=analyzer)
        index.add("ps", text)
        _reference_add(reference, "ps", text)
        assert _snapshot(index) == _snapshot(reference)
