"""A from-scratch full-text engine (the reproduction's Apache Lucene).

The paper's iMeMex prototype builds its Name Index and Content Index on
Lucene 1.4.3: analyzed inverted keyword lists with positional postings.
This package provides the same functional contract:

* :mod:`analyzer` — tokenization and normalization;
* :mod:`postings` — positional postings lists;
* :mod:`index` — the inverted index with add/remove/size accounting
  (size accounting feeds Table 3 of the evaluation);
* :mod:`query` — term, phrase and wildcard queries, the leaves iQL
  keyword predicates compile to.

The content index is *not* a replica: like the paper's, it cannot return
the original content, only the document keys that match.
"""

from .analyzer import Analyzer, Token, tokenize
from .index import InvertedIndex
from .query import Phrase, Query, Term, Wildcard

__all__ = [
    "Analyzer", "Token", "tokenize",
    "InvertedIndex",
    "Phrase", "Query", "Term", "Wildcard",
]
