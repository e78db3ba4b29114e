"""Positional postings lists over compressed doc-id sets.

A postings list maps one term to the documents containing it, keeping
per-document occurrence positions for phrase matching. Documents are
identified by the process-wide *catalog ids* of the URI dictionary
(since the keyset refactor, DESIGN.md §4j — there is no per-index doc
id space any more), and the membership set is a
:class:`~repro.rvm.keyset.KeySet`: phrase and wildcard queries
combine postings with word-parallel bitmap algebra, and the query
engine receives the id set as-is, with no string conversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _keyset_of(ids):
    # deferred: repro.rvm imports repro.fulltext (indexes -> InvertedIndex),
    # so a module-level import here would cycle when fulltext loads first
    from ..rvm.keyset import KeySet
    return KeySet.from_iterable(ids)


@dataclass(slots=True)
class Posting:
    """One (document, positions) entry of a postings list."""

    doc: int
    positions: list[int] = field(default_factory=list)

    def size_bytes(self) -> int:
        """Approximate serialized size: 4 bytes per position.

        Document membership is *not* counted here — the list's
        compressed keyset accounts for it (see
        :meth:`PostingsList.size_bytes`); Table 3 of the paper reports
        index sizes, and this is what we sum there.
        """
        return 4 * len(self.positions)


class PostingsList:
    """The postings of one term: a compressed doc-id set plus the
    per-document position lists.

    One writer, many readers (DESIGN.md §4j): readers walk the doc set
    and look each doc up in ``_by_doc``, so a posting is stored before
    its doc joins the set and leaves the set before it is dropped.
    """

    __slots__ = ("_docs", "_by_doc")

    def __init__(self, positions: dict[int, list[int]] | None = None
                 ) -> None:
        """Empty, or bulk-built from ``{doc: ascending positions}``."""
        self._by_doc: dict[int, Posting] = {
            doc: Posting(doc, doc_positions)
            for doc, doc_positions in (positions or {}).items()
        }
        self._docs = _keyset_of(self._by_doc)

    def add_doc(self, doc: int, positions: list[int]) -> None:
        """Record every occurrence of the term in ``doc`` (not yet in the
        list): ``positions`` is complete and ascending."""
        self._by_doc[doc] = Posting(doc, positions)
        self._docs.add(doc)

    def remove_doc(self, doc: int) -> bool:
        """Drop a document's posting; returns True when it existed."""
        if doc not in self._by_doc:
            return False
        self._docs.discard(doc)
        del self._by_doc[doc]
        return True

    def get(self, doc: int) -> Posting | None:
        return self._by_doc.get(doc)

    def doc_ids(self) -> list[int]:
        return self._docs.to_list()

    def doc_set(self):
        """The live :class:`~repro.rvm.keyset.KeySet` of doc ids.

        Shared, not copied — callers must treat it as read-only (the
        full-text query leaves do: every keyset op allocates a fresh
        result).
        """
        return self._docs

    @property
    def document_frequency(self) -> int:
        return len(self._by_doc)

    def __iter__(self):
        by_doc = self._by_doc
        return (by_doc[doc] for doc in self._docs)

    def __len__(self) -> int:
        return len(self._by_doc)

    def __bool__(self) -> bool:
        return bool(self._by_doc)

    def size_bytes(self) -> int:
        """Compressed layout: the keyset's footprint plus positions."""
        return self._docs.size_bytes() + sum(
            p.size_bytes() for p in self._by_doc.values()
        )
