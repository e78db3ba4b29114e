"""Full-text queries: term, phrase, wildcard and boolean combinations.

Queries evaluate against an :class:`~repro.fulltext.index.InvertedIndex`
and return the set of matching *external keys*. Evaluation is set-based
(matching Lucene's filter behavior); ranked retrieval lives in
:mod:`repro.fulltext.scoring`.

:func:`parse_query` understands the keyword sub-language used inside iQL
predicates: whitespace-separated terms are AND-ed, quoted strings are
phrases, ``or``/``and``/``not`` combine, parentheses group, ``*``/``?``
in a bare word make it a wildcard. Example: ``"database tuning" or
(index* and not btree)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from ..core.errors import FullTextError, QuerySyntaxError
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
        the engine-facing form. Every node here overrides this with
        keyset algebra over the postings' doc sets; wrapping
        :meth:`docs` is the default for a node that has none."""
        return _keyset_of(self.docs(index))

    def keys(self, index: InvertedIndex) -> set[str]:
        """Matching external document keys."""
        return {index.key_of(doc) for doc in self.docs(index)}


@dataclass(frozen=True)
class MatchAll(Query):
    """Matches every indexed document."""

    def docs(self, index: InvertedIndex) -> set[int]:
        return set(index.all_doc_ids())

    def ids(self, index: InvertedIndex):
        return index.doc_set().copy()


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
    first, *following = (set(entry.positions) for entry in entries)
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


@dataclass(frozen=True)
class And(Query):
    parts: tuple[Query, ...]

    def docs(self, index: InvertedIndex) -> set[int]:
        if not self.parts:
            return set()
        result: set[int] | None = None
        for part in self.parts:
            docs = part.docs(index)
            result = docs if result is None else result & docs
            if not result:
                return set()
        return result or set()

    def ids(self, index: InvertedIndex):
        if not self.parts:
            return _new_keyset()
        result = None
        for part in self.parts:
            ids = part.ids(index)
            result = ids if result is None else result.and_(ids)
            if not result:
                return _new_keyset()
        return result


@dataclass(frozen=True)
class Or(Query):
    parts: tuple[Query, ...]

    def docs(self, index: InvertedIndex) -> set[int]:
        result: set[int] = set()
        for part in self.parts:
            result |= part.docs(index)
        return result

    def ids(self, index: InvertedIndex):
        result = _new_keyset()
        for part in self.parts:
            result = result.or_(part.ids(index))
        return result


@dataclass(frozen=True)
class Not(Query):
    """Complement relative to the full document set."""

    part: Query

    def docs(self, index: InvertedIndex) -> set[int]:
        return set(index.all_doc_ids()) - self.part.docs(index)

    def ids(self, index: InvertedIndex):
        return index.doc_set().andnot(self.part.ids(index))


# ---------------------------------------------------------------------------
# Keyword query mini-language
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r'\s*(?:(?P<quote>"[^"]*")|(?P<lparen>\()|(?P<rparen>\))|(?P<word>[^\s()"]+))'
)


def _tokenize_query(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remaining = text[pos:].strip()
            if remaining:
                raise QuerySyntaxError(f"cannot tokenize keyword query at {remaining!r}")
            break
        tokens.append(match.group(0).strip())
        pos = match.end()
    return [t for t in tokens if t]


def parse_query(text: str) -> Query:
    """Parse the keyword mini-language into a :class:`Query` tree.

    Grammar (lowest to highest precedence)::

        or_expr   := and_expr ("or" and_expr)*
        and_expr  := unary (("and")? unary)*     -- juxtaposition is AND
        unary     := "not" unary | atom
        atom      := '"..."' | "(" or_expr ")" | word
    """
    tokens = _tokenize_query(text)
    if not tokens:
        raise QuerySyntaxError("empty keyword query")
    parser = _KeywordParser(tokens)
    query = parser.parse_or()
    if not parser.at_end:
        raise QuerySyntaxError(f"unexpected token {parser.peek()!r} in keyword query")
    return query


class _KeywordParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    @property
    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if not self.at_end else None

    def next(self) -> str:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse_or(self) -> Query:
        parts = [self.parse_and()]
        while self.peek() is not None and self.peek().lower() == "or":  # type: ignore[union-attr]
            self.next()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Query:
        parts = [self.parse_unary()]
        while True:
            token = self.peek()
            if token is None or token == ")" or token.lower() == "or":
                break
            if token.lower() == "and":
                self.next()
                continue
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> Query:
        token = self.peek()
        if token is None:
            raise QuerySyntaxError("keyword query ended unexpectedly")
        if token.lower() == "not":
            self.next()
            return Not(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Query:
        token = self.next()
        if token == "(":
            inner = self.parse_or()
            if self.peek() != ")":
                raise QuerySyntaxError("missing ')' in keyword query")
            self.next()
            return inner
        if token.startswith('"'):
            return Phrase.of(token[1:-1])
        if token == ")":
            raise QuerySyntaxError("unexpected ')' in keyword query")
        if "*" in token or "?" in token:
            return Wildcard(token)
        return Term(token)


def search(index: InvertedIndex, query: Query | str) -> set[str]:
    """Evaluate ``query`` (text or tree) and return matching keys."""
    if isinstance(query, str):
        query = parse_query(query)
    return query.keys(index)
