"""The unit of data flow in the batched engine: a vector of sort keys.

A :class:`Batch` is an immutable chunk of an operator's output. Since
the URI dictionary (DESIGN.md §4h) the column the operators move is
``keys`` — dictionary *sort keys*, dense ``int64`` values packed in an
``array('q')``, whose integer order equals URI lexicographic order.
Merges compare ints, seen-sets hash ints, sorts sort ints; only the
result boundary materializes strings, through the lazy :attr:`uris`
property and the batch's captured
:class:`~repro.rvm.uridict.DictionaryView`.

Every batch carries the view its keys came from — there is no
view-less mode; the operator unit tests bind their fixtures through a
private dictionary instead.

``ordered=True`` asserts the stream property the merge operators rely
on: keys are strictly increasing *within the batch and across
consecutive batches of the same stream*. Unordered streams still never
repeat a key — every operator's output is a set, delivered in chunks.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Iterable, Iterator

#: Default rows per batch. Large enough to amortize per-batch overhead
#: (one checkpoint, one counter bump), small enough that a ``LIMIT 10``
#: pulls a sliver of the corpus.
DEFAULT_BATCH_SIZE = 256

class Batch:
    """One chunk of an operator's output stream."""

    __slots__ = ("keys", "ordered", "view", "_uris")

    def __init__(self, keys: array, ordered: bool = False, *, view):
        self.keys = keys
        self.ordered = ordered
        self.view = view
        self._uris: tuple[str, ...] | None = None

    @property
    def uris(self) -> tuple[str, ...]:
        """The batch's rows as URI strings (materialized lazily, once).

        This is the engine's *result boundary*: everything below it
        moves integer keys; callers that need surface syntax — result
        assembly, streaming iteration, cached-batch replay — pay the
        dictionary indirection here and only here.
        """
        uris = self._uris
        if uris is None:
            uris = self._uris = self.view.uris_for(self.keys)
        return uris

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator:
        return iter(self.keys)

    @property
    def is_empty(self) -> bool:
        return not len(self.keys)

    def truncated(self, count: int) -> "Batch":
        """The first ``count`` rows (for LIMIT's final partial batch)."""
        if count >= len(self.keys):
            return self
        return Batch(self.keys[:count], ordered=self.ordered, view=self.view)


def chunked(keys: array, size: int, *, ordered: bool = False,
            view) -> Iterator[Batch]:
    """Slice a key column into :class:`Batch` es of ``size`` rows (an
    ``array`` slice stays an ``array``)."""
    for start in range(0, len(keys), size):
        yield Batch(keys[start:start + size], ordered=ordered, view=view)


def chunked_stream(keys: Iterable[int], size: int, *,
                   view) -> Iterator[Batch]:
    """Buffer a lazily produced key stream into unordered batches of
    ``size`` rows, pulling no further ahead than the batch in hand."""
    keys = iter(keys)
    while column := array("q", islice(keys, size)):
        yield Batch(column, view=view)
