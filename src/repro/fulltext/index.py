"""The inverted index.

Documents are added under an external string key (in iMeMex: the view
id's URI); the key is interned in the process-wide URI dictionary and
the resulting dense **catalog id** is the document id everywhere —
postings, lengths, stored text. There is no per-index id space (the
keyset refactor, DESIGN.md §4j, deleted it): the same integer
identifies a view in the catalog, in every index, in the group replica
and in the engine's key sets, so index results flow to the query engine
as :class:`~repro.rvm.keyset.KeySet` s with no translation step.

Optionally the index also *stores* the original text per document,
turning it into an index+replica (the paper's Name Index & Replica does
this; the Content Index does not).

Size accounting (:meth:`InvertedIndex.size_bytes`) reports the
compressed keyset layout and feeds Table 3 of the evaluation. The URI ↔
id dictionary itself is shared process state (the catalog's) and is not
double-counted here.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..core.errors import FullTextError
from .analyzer import DEFAULT_ANALYZER, Analyzer
from .postings import PostingsList


def _global_dictionary():
    # deferred: repro.rvm imports this module (indexes -> InvertedIndex);
    # importing the rvm package at module scope would cycle when the
    # fulltext package is imported first
    from ..rvm.uridict import global_uri_dictionary
    return global_uri_dictionary()


class InvertedIndex:
    """A positional inverted index keyed by catalog ids."""

    def __init__(self, *, analyzer: Analyzer | None = None,
                 store_text: bool = False):
        self.analyzer = analyzer if analyzer is not None else DEFAULT_ANALYZER
        self.store_text = store_text
        self._dictionary = _global_dictionary()
        self._terms: dict[str, PostingsList] = {}
        self._doc_lengths: dict[int, int] = {}
        #: doc -> the postings lists holding it, so removal walks the
        #: document's terms and not the whole term dictionary
        self._doc_postings: dict[int, tuple[PostingsList, ...]] = {}
        self._stored_text: dict[int, str] = {}
        self._total_input_bytes = 0

    # -- write path -----------------------------------------------------------

    def add(self, key: str, text: str) -> int:
        """Index ``text`` under ``key``; re-adding a key replaces it.
        Returns the document's catalog id."""
        doc = self._dictionary.intern(key)
        if doc in self._doc_lengths:
            self._remove_doc(doc)
        terms = self._terms
        held = []
        length = 0
        for term, positions in self.analyzer.positions(text).items():
            postings = terms.get(term)
            if postings is None:
                postings = terms[term] = PostingsList(term)
            postings.add_doc(doc, positions)
            held.append(postings)
            length += len(positions)
        self._doc_postings[doc] = tuple(held)
        self._doc_lengths[doc] = length
        self._total_input_bytes += len(text.encode("utf-8", "replace"))
        if self.store_text:
            self._stored_text[doc] = text
        return doc

    def restore(self, lengths: dict[str, int], rows) -> None:
        """Bulk-load a snapshot into this empty index: ``lengths`` maps
        each document key to its length, and ``rows`` yields ``(term,
        [[key, positions], ...])``. Each term's ``{doc: positions}`` dict
        is stored as built; a key without a length is skipped."""
        intern = self._dictionary.intern
        docs = {key: intern(key) for key in lengths}
        held = {doc: [] for doc in docs.values()}
        for term, entries in rows:
            positions = {docs[key]: doc_positions
                         for key, doc_positions in entries if key in docs}
            postings = self._terms[term] = PostingsList(term, positions)
            for doc in positions:
                held[doc].append(postings)
        for key, doc in docs.items():
            self._doc_lengths[doc] = lengths[key]
            self._doc_postings[doc] = tuple(held[doc])

    def remove(self, key: str) -> bool:
        """Remove a document; returns True when it was present."""
        doc = self._dictionary.id_of(key)
        if doc is None or doc not in self._doc_lengths:
            return False
        return self._remove_doc(doc)

    def _remove_doc(self, doc: int) -> bool:
        self._doc_lengths.pop(doc, None)
        self._stored_text.pop(doc, None)
        terms = self._terms
        for postings in self._doc_postings.pop(doc, ()):
            postings.remove_doc(doc)
            if not postings:
                del terms[postings.term]
        return True

    # -- read path --------------------------------------------------------------

    def __contains__(self, key: object) -> bool:
        if not isinstance(key, str):
            return False
        doc = self._dictionary.id_of(key)
        return doc is not None and doc in self._doc_lengths

    def __len__(self) -> int:
        return len(self._doc_lengths)

    @property
    def document_count(self) -> int:
        return len(self._doc_lengths)

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def keys(self) -> Iterator[str]:
        uri_of = self._dictionary.uri_of
        return (uri_of(doc) for doc in self._doc_lengths)

    def postings(self, term: str) -> PostingsList | None:
        """The postings list for an *analyzed* term, or None."""
        return self._terms.get(term)

    def terms_matching(self, predicate) -> Iterator[str]:
        """All dictionary terms satisfying ``predicate`` (for wildcards)."""
        return (term for term in self._terms if predicate(term))

    def key_of(self, doc: int) -> str:
        if doc not in self._doc_lengths:
            raise FullTextError(f"unknown doc id {doc}")
        return self._dictionary.uri_of(doc)

    def doc_of(self, key: str) -> int | None:
        doc = self._dictionary.id_of(key)
        if doc is None or doc not in self._doc_lengths:
            return None
        return doc

    def doc_length(self, doc: int) -> int:
        return self._doc_lengths.get(doc, 0)

    def stored_text(self, key: str) -> str:
        """Return the replicated text (only when ``store_text=True``)."""
        if not self.store_text:
            raise FullTextError(
                "this index is not a replica: original text is not stored"
            )
        doc = self.doc_of(key)
        if doc is None:
            raise FullTextError(f"unknown document key {key!r}")
        return self._stored_text[doc]

    def all_doc_ids(self) -> list[int]:
        return sorted(self._doc_lengths)

    def stored_items(self) -> Iterator[tuple[str, str]]:
        """Iterate ``(key, original text)`` pairs (replica indexes only).

        The pairs are a snapshot taken now: a caller may consume them
        while ``refresh()`` adds and removes documents on another
        thread, and iterating the live dict would raise "dictionary
        changed size during iteration". ``dict.copy`` is one
        interpreter-lock-held call, so the snapshot is atomic."""
        if not self.store_text:
            raise FullTextError(
                "this index is not a replica: original text is not stored"
            )
        uri_of = self._dictionary.uri_of
        return ((uri_of(doc), text)
                for doc, text in self._stored_text.copy().items())

    # -- statistics -----------------------------------------------------------

    @property
    def total_input_bytes(self) -> int:
        """Total UTF-8 bytes of all text ever fed to :meth:`add` (net
        input size in the paper's Table 3 terminology)."""
        return self._total_input_bytes

    def size_bytes(self) -> int:
        """Compressed index size: term dictionary + keyset postings
        (+ stored text) + the per-document length table. The URI ↔ id
        mapping is the shared catalog dictionary — not counted here."""
        dictionary = sum(len(term.encode("utf-8")) + 8 for term in self._terms)
        postings = sum(p.size_bytes() for p in self._terms.values())
        stored = sum(len(t.encode("utf-8", "replace")) + 8
                     for t in self._stored_text.values())
        from ..rvm.keyset import KeySet  # deferred: see _global_dictionary
        doc_table = (KeySet.from_iterable(self._doc_lengths).size_bytes()
                     + 12 * len(self._doc_lengths))
        return dictionary + postings + stored + doc_table

    def stats(self) -> "IndexStats":
        """The shared :class:`~repro.obs.IndexStats` shape: entries are
        indexed documents; term and net-input counts ride in
        ``detail``."""
        from ..obs import IndexStats
        return IndexStats(
            name="fulltext",
            entries=self.document_count,
            bytes_estimate=self.size_bytes(),
            detail={
                "terms": self.term_count,
                "input_bytes": self.total_input_bytes,
            },
        )
