"""Tokenization and normalization for the full-text engine.

The default analyzer mirrors Lucene's StandardAnalyzer in spirit:
alphanumeric runs become terms, terms are lowercased, and an optional
stopword list drops high-frequency function words. Positions are
token ordinals (not byte offsets), which is what phrase matching needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

#: A small English stopword list. Disabled by default: the paper's
#: queries include phrases ("database tuning") whose terms must all be
#: indexed, and Lucene 1.4's default list famously broke phrases like
#: "to be or not to be" — we keep the default index exhaustive.
DEFAULT_STOPWORDS = frozenset({
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
    "in", "into", "is", "it", "no", "not", "of", "on", "or", "such",
    "that", "the", "their", "then", "there", "these", "they", "this",
    "to", "was", "will", "with",
})


@dataclass(frozen=True, slots=True)
class Token:
    """One analyzed term occurrence: the term and its token position."""

    term: str
    position: int


#: A word is a maximal run of characters for which ``str.isalnum()``
#: holds: ``\w`` is alphanumeric-or-underscore in ``re``'s Unicode
#: mode, so ``[^\W_]`` is exactly alphanumeric, matched at C speed.
_WORD = re.compile(r"[^\W_]+")


class Analyzer:
    """Turns raw text into a normalized token stream.

    ``min_length`` drops noise tokens (single characters by default keep
    — names like "C" appear in personal data — so the default is 1).
    """

    def __init__(self, *, stopwords: Iterable[str] | None = None,
                 lowercase: bool = True, min_length: int = 1,
                 max_length: int = 64):
        self.stopwords = frozenset(stopwords) if stopwords is not None else frozenset()
        self.lowercase = lowercase
        self.min_length = min_length
        self.max_length = max_length

    def _analyzed(self, text: str) -> Iterator[tuple[int, str]]:
        """``(position, term)`` for every word that survives the filters.

        Positions count *every* word: stopword removal leaves gaps,
        matching Lucene's position-increment behavior, so phrases cannot
        falsely match across a removed stopword.
        """
        words = _WORD.findall(text)
        if self.lowercase:
            words = map(str.lower, words)
        low, high, stopwords = self.min_length, self.max_length, self.stopwords
        return ((position, term) for position, term in enumerate(words)
                if low <= len(term) <= high and term not in stopwords)

    def tokens(self, text: str) -> Iterator[Token]:
        """Analyzed tokens in position order."""
        return (Token(term, position)
                for position, term in self._analyzed(text))

    def terms(self, text: str) -> list[str]:
        """Just the term strings, in order."""
        return [term for _, term in self._analyzed(text)]

    def positions(self, text: str) -> dict[str, list[int]]:
        """Every term of ``text`` with its ascending positions, terms in
        order of first occurrence — one pass, what indexing a whole
        document needs."""
        out: dict[str, list[int]] = {}
        for position, term in self._analyzed(text):
            if term in out:
                out[term].append(position)
            else:
                out[term] = [position]
        return out


#: The analyzer used across the library unless a caller overrides it.
DEFAULT_ANALYZER = Analyzer()


def tokenize(text: str) -> list[Token]:
    """Tokenize with the default analyzer."""
    return list(DEFAULT_ANALYZER.tokens(text))
