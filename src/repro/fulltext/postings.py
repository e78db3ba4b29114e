"""Positional postings lists with a doc-id set derived on read.

A postings list maps one term to the documents containing it, keeping
per-document occurrence positions for phrase matching. Documents are
the process-wide *catalog ids* of the URI dictionary (DESIGN.md §4j).
A write is one store into a plain ``{doc: positions}`` dict; the
membership :class:`~repro.rvm.keyset.KeySet` that phrase and wildcard
queries combine, and the query engine receives as-is, is derived from
the dict's keys by the first reader after a write.
"""

from __future__ import annotations


def _keyset_of(ids):
    # deferred: repro.rvm imports repro.fulltext (indexes -> InvertedIndex),
    # so a module-level import here would cycle when fulltext loads first
    from ..rvm.keyset import KeySet
    return KeySet.from_iterable(ids)


class PostingsList:
    """The postings of one term: ``{doc: ascending positions}`` plus the
    doc set derived from it.

    One writer, many readers (DESIGN.md §4j): a write is one dict store
    or pop followed by an epoch bump. :meth:`doc_set` serves its cached
    set only while the epoch it was built at is current; the reader
    takes the epoch *before* it snapshots the keys, so a set that raced
    a write carries the older epoch and the next reader rebuilds it.
    """

    __slots__ = ("term", "_positions", "_epoch", "_doc_set")

    def __init__(self, term: str,
                 positions: dict[int, list[int]] | None = None) -> None:
        """Empty, or holding ``{doc: ascending positions}`` as given."""
        self.term = term
        self._positions: dict[int, list[int]] = positions or {}
        self._epoch = 0
        #: ``(epoch, KeySet)`` of the last build, or None
        self._doc_set = None

    def add_doc(self, doc: int, positions: list[int]) -> None:
        """Record every occurrence of the term in ``doc`` (not yet in the
        list): ``positions`` is complete and ascending."""
        self._positions[doc] = positions
        self._epoch += 1

    def remove_doc(self, doc: int) -> None:
        """Drop a listed document's positions."""
        del self._positions[doc]
        self._epoch += 1

    def get(self, doc: int) -> list[int] | None:
        """The document's positions, or None when it is not listed."""
        return self._positions.get(doc)

    def doc_ids(self) -> list[int]:
        return sorted(self._positions)

    def doc_set(self):
        """The :class:`~repro.rvm.keyset.KeySet` of doc ids, built here
        when a write moved the epoch since the last build.

        Shared, not copied — callers must treat it as read-only (the
        full-text query leaves do: every keyset op allocates a fresh
        result).
        """
        epoch = self._epoch
        cached = self._doc_set
        if cached is not None and cached[0] == epoch:
            return cached[1]
        # set(dict) inside from_iterable is one interpreter-lock-held
        # call, so it never sees the dict resize under a write
        docs = _keyset_of(self._positions)
        self._doc_set = (epoch, docs)
        return docs

    def __iter__(self):
        """``(doc, positions)`` pairs in ascending doc order."""
        return iter(sorted(self._positions.items()))

    def __len__(self) -> int:
        """The document frequency."""
        return len(self._positions)

    def size_bytes(self) -> int:
        """Compressed layout: the doc set's footprint plus 4 bytes per
        position (Table 3 of the paper reports index sizes, and this is
        what we sum there)."""
        return self.doc_set().size_bytes() + 4 * sum(
            map(len, self._positions.values()))
