"""Full-text queries: term, phrase and wildcard.

Queries evaluate against an :class:`~repro.fulltext.index.InvertedIndex`.
:meth:`Query.ids` is the engine-facing form: keyset algebra over the
postings' doc sets, handed to the query executor as-is. :meth:`Query.docs`
is the set-based twin, kept as the plain reference the property tests
check :meth:`~Query.ids` against, and :meth:`Query.keys` maps its doc ids
to external keys.

iQL keyword predicates are the one text-query path: the executor builds
these leaves from a predicate's text (see :mod:`repro.query.executor`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .index import InvertedIndex


def _new_keyset():
    # deferred import: see repro.fulltext.postings
    from ..rvm.keyset import KeySet
    return KeySet()


def _keyset_of(ids) -> "object":
    from ..rvm.keyset import KeySet
    return KeySet.from_iterable(ids)


class Query:
    """Base class; :meth:`docs` returns matching catalog (doc) ids."""

    def docs(self, index: InvertedIndex) -> set[int]:
        raise NotImplementedError

    def ids(self, index: InvertedIndex):
        """Matching doc ids as a :class:`~repro.rvm.keyset.KeySet` —
        the engine-facing form."""
        raise NotImplementedError

    def keys(self, index: InvertedIndex) -> set[str]:
        """Matching external document keys."""
        return {index.key_of(doc) for doc in self.docs(index)}


@dataclass(frozen=True)
class Term(Query):
    """Matches documents containing the (analyzed) term."""

    term: str

    def docs(self, index: InvertedIndex) -> set[int]:
        analyzed = index.analyzer.terms(self.term)
        if not analyzed:
            return set()
        if len(analyzed) > 1:
            # the "term" analyzes to several tokens -> phrase semantics
            return Phrase(tuple(analyzed)).docs(index)
        postings = index.postings(analyzed[0])
        return set(postings.doc_ids()) if postings else set()

    def ids(self, index: InvertedIndex):
        analyzed = index.analyzer.terms(self.term)
        if not analyzed:
            return _new_keyset()
        if len(analyzed) > 1:
            return Phrase(tuple(analyzed)).ids(index)
        postings = index.postings(analyzed[0])
        return postings.doc_set().copy() if postings else _new_keyset()


@dataclass(frozen=True)
class Phrase(Query):
    """Matches documents containing the terms at consecutive positions."""

    terms: tuple[str, ...]

    @classmethod
    def of(cls, text: str, index: InvertedIndex | None = None) -> "Phrase":
        from .analyzer import DEFAULT_ANALYZER
        analyzer = index.analyzer if index is not None else DEFAULT_ANALYZER
        return cls(tuple(analyzer.terms(text)))

    def docs(self, index: InvertedIndex) -> set[int]:
        if not self.terms:
            return set()
        lists = []
        for term in self.terms:
            postings = index.postings(term)
            if postings is None:
                return set()
            lists.append(postings)
        # intersect candidate docs via the rarest list first
        lists_sorted = sorted(lists, key=len)
        candidates = set(lists_sorted[0].doc_ids())
        for postings in lists_sorted[1:]:
            candidates &= set(postings.doc_ids())
            if not candidates:
                return set()
        return {doc for doc in candidates if _consecutive(lists, doc)}

    def ids(self, index: InvertedIndex):
        lists = [index.postings(term) for term in self.terms]
        if not lists or any(postings is None for postings in lists):
            return _new_keyset()
        if len(lists) == 1:
            # one term: its postings list *is* the answer, positions unread
            return lists[0].doc_set().copy()
        # candidates by keyset algebra, rarest list first; only the
        # survivors pay the positional check
        lists_sorted = sorted(lists, key=len)
        candidates = lists_sorted[0].doc_set()
        for postings in lists_sorted[1:]:
            candidates = candidates.and_(postings.doc_set())
            if not candidates:
                return candidates
        return _keyset_of(doc for doc in candidates.to_list()
                          if _consecutive(lists, doc))


def _consecutive(lists, doc: int) -> bool:
    """True when ``doc`` holds the lists' terms at consecutive
    positions. A document removed since the candidates were read has
    lost its postings and simply does not match."""
    entries = [postings.get(doc) for postings in lists]
    if any(entry is None for entry in entries):
        return False
    first, *following = map(set, entries)
    return any(all(start + offset in positions
                   for offset, positions in enumerate(following, 1))
               for start in first)


@dataclass(frozen=True)
class Wildcard(Query):
    """Matches documents containing any term matching the pattern.

    ``*`` matches any run of characters, ``?`` exactly one. The pattern
    is matched against analyzed (lowercased) dictionary terms.
    """

    pattern: str

    def _regex(self) -> re.Pattern[str]:
        out = []
        for ch in self.pattern.lower():
            if ch == "*":
                out.append(".*")
            elif ch == "?":
                out.append(".")
            else:
                out.append(re.escape(ch))
        return re.compile("^" + "".join(out) + "$")

    def docs(self, index: InvertedIndex) -> set[int]:
        regex = self._regex()
        matched: set[int] = set()
        for term in index.terms_matching(lambda t: regex.match(t)):
            postings = index.postings(term)
            if postings:
                matched.update(postings.doc_ids())
        return matched

    def ids(self, index: InvertedIndex):
        regex = self._regex()
        matched = _new_keyset()
        for term in index.terms_matching(lambda t: regex.match(t)):
            postings = index.postings(term)
            if postings:
                matched = matched.or_(postings.doc_set())
        return matched
