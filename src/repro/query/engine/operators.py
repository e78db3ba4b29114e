"""Batched physical operators: the Volcano protocol over key vectors.

Every operator implements ``open(ctx)`` / ``next_batch()`` / ``close()``
and streams :class:`~repro.query.engine.batch.Batch` es to its parent.
``next_batch()`` returning ``None`` means exhausted; ``close()`` is
idempotent and releases children (a parent may close early — that is
how ``Limit`` stops a scan mid-corpus).

One key representation flows between a scan leaf and ``Batch.uris``:
the URI dictionary's ``int64`` sort keys (DESIGN.md §4h) in
``array('q')`` columns. Every scan leaf receives catalog ids from the
execution context and binds them to keys through the execution's
:class:`~repro.rvm.uridict.DictionaryView`; only the result boundary
maps keys back to strings. The operator unit tests run this same code
over a private dictionary, so they exercise what production runs.

Two stream disciplines coexist (see DESIGN.md §4e):

* **ordered** streams emit strictly increasing keys across batches —
  the sorted-merge operators (:class:`MergeIntersect`,
  :class:`MergeUnion`, :class:`MergeDiff`) require it of their inputs
  and preserve it; key order equals URI lexicographic order, so this is
  the same URI-ascending invariant as before the dictionary;
* **unordered** streams emit distinct keys in pipeline order — cheaper
  (no sort barrier), and what :class:`Limit` wants above a scan.

The compiler (:mod:`.compile`) inserts :class:`Sort` enforcers where an
ordered input is required but not provided.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import islice
from typing import Callable, Iterator

from ..ast import Axis
from .batch import Batch, chunked, chunked_stream


class Operator:
    """Base of the pull-based operator protocol."""

    #: True when this operator's output stream is strictly increasing.
    ordered = False

    def open(self, ctx) -> None:
        """Bind the execution context. Must be cheap: no substrate work
        happens until the first ``next_batch()`` pull."""
        raise NotImplementedError

    def next_batch(self) -> Batch | None:
        """The next output chunk, or ``None`` once exhausted."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources and close children (idempotent)."""


def drain(op: Operator) -> Iterator:
    """Pull ``op`` to exhaustion, yielding keys, then close it."""
    try:
        while True:
            batch = op.next_batch()
            if batch is None:
                return
            # unbox the int64 column once per batch (see _Cursor._load)
            yield from batch.keys.tolist()
    finally:
        op.close()


class _Cursor:
    """A row cursor over an *ordered* operator's batch stream."""

    __slots__ = ("op", "_keys", "_pos", "exhausted", "_started")

    def __init__(self, op: Operator):
        self.op = op
        self._keys = ()
        self._pos = 0
        self.exhausted = False
        self._started = False

    @property
    def value(self):
        return self._keys[self._pos]

    def _load(self) -> bool:
        while True:
            batch = self.op.next_batch()
            if batch is None:
                self.exhausted = True
                return False
            if len(batch):
                # the int64 column is unboxed once per batch: indexing
                # an array boxes a fresh int object on every access,
                # which would cost more than the integer compares save
                self._keys = batch.keys.tolist()
                self._pos = 0
                return True

    def ensure(self) -> bool:
        """Position on the first row (no-op afterwards)."""
        if not self._started:
            self._started = True
            return self._load()
        return not self.exhausted

    def advance(self) -> bool:
        self._pos += 1
        if self._pos >= len(self._keys):
            return self._load()
        return True

    def advance_to(self, target) -> bool:
        """Skip rows < ``target`` (binary search within each batch)."""
        while not self.exhausted:
            index = bisect_left(self._keys, target, lo=self._pos)
            if index < len(self._keys):
                self._pos = index
                return True
            if not self._load():
                return False
        return False


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

class SetScan(Operator):
    """An index lookup delivered in sorted batches.

    ``fetch`` runs once, on the first pull — a ``SetScan`` that is
    opened but never pulled (an intersection short-circuited by an
    earlier empty input) does no substrate work at all, matching the
    pre-engine executor's sequential short-circuit behaviour. It
    returns catalog ids — a :class:`~repro.rvm.keyset.KeySet` or any
    iterable of them — which the dictionary view binds to sort keys by
    integer indexing.
    """

    ordered = True

    def __init__(self, fetch: Callable[[object], object]):
        self._fetch = fetch
        self._chunks: Iterator[Batch] | None = None
        self._ctx = None

    def open(self, ctx) -> None:
        self._ctx = ctx
        self._chunks = None

    def next_batch(self) -> Batch | None:
        if self._chunks is None:
            ctx = self._ctx
            view = ctx.dict_view
            self._chunks = chunked(view.keys_for_ids(self._fetch(ctx)),
                                   ctx.engine.batch_size, ordered=True,
                                   view=view)
        return next(self._chunks, None)


class CatalogScan(Operator):
    """Stream every registered view in dictionary sort-key order.

    The catalog's id keyset is handed to the dictionary view whole —
    one integer gather, no per-URI string work — and sliced into
    ordered batches, so the scan now satisfies merge parents directly
    (no Sort enforcer). One checkpoint per pull so a deadline can fire
    between batches of a long scan; rows are counted per emitted batch,
    keeping the accounting O(k) under an early-terminating ``Limit``.
    """

    ordered = True

    def __init__(self) -> None:
        self._chunks: Iterator[Batch] | None = None
        self._ctx = None

    def open(self, ctx) -> None:
        self._ctx = ctx
        self._chunks = None

    def next_batch(self) -> Batch | None:
        ctx = self._ctx
        ctx.checkpoint()
        if self._chunks is None:
            ctx.count("ctx.catalog_scan")
            view = ctx.dict_view
            self._chunks = chunked(view.keys_for_ids(ctx.all_ids()),
                                   ctx.engine.batch_size, ordered=True,
                                   view=view)
        batch = next(self._chunks, None)
        if batch is not None and len(batch):
            ctx.count("engine.rows_scanned", len(batch))
        return batch


class NameScan(Operator):
    """Wildcard name match, streamed off the catalog's name dictionary.

    The pattern is matched per *distinct name*, not per view: the
    execution context nominates candidate names by the pattern's
    literal text, verifies them a vector at a time and hands back the
    ids filed under each match (``ctx.name_pattern_id_stream``). Each
    pull draws at most one batch of ids from that stream, so a
    ``Limit`` above stops the scan after a sliver of the names;
    ``engine.rows_scanned`` counts the names examined.
    """

    ordered = False

    def __init__(self, pattern: str):
        self.pattern = pattern
        self._ctx = None
        self._ids: Iterator[int] | None = None

    def open(self, ctx) -> None:
        self._ctx = ctx
        self._ids = None

    def next_batch(self) -> Batch | None:
        ctx = self._ctx
        ctx.checkpoint()  # cancellation observed once per pull
        if self._ids is None:
            ctx.count("ctx.name_pattern")
            self._ids = ctx.name_pattern_id_stream(self.pattern)
        matched = [*islice(self._ids, ctx.engine.batch_size)]
        if not matched:
            return None
        view = ctx.dict_view
        return Batch(view.keys_in_order_ids(matched), view=view)


# ---------------------------------------------------------------------------
# Streaming set combinators (sorted-merge family)
# ---------------------------------------------------------------------------

class MergeIntersect(Operator):
    """K-way sorted-merge intersection.

    Inputs advance in plan order, so an empty first input finishes the
    operator before later inputs do any work (the classic sequential
    short-circuit), and a ``Limit`` above stops the merge after k
    matches instead of materializing every side.
    """

    ordered = True

    def __init__(self, children: list[Operator]):
        self.children = children
        self._cursors: list[_Cursor] | None = None
        self._done = False
        self._ctx = None

    def open(self, ctx) -> None:
        self._ctx = ctx
        for child in self.children:
            child.open(ctx)
        self._cursors = [_Cursor(c) for c in self.children]
        self._done = False

    def next_batch(self) -> Batch | None:
        if self._done:
            return None
        cursors = self._cursors
        for cursor in cursors:  # plan order: empty-first short-circuits
            if not cursor.ensure():
                self._finish()
                return None
        ctx = self._ctx
        size = ctx.engine.batch_size
        out: list = []
        while len(out) < size:
            high = max(cursor.value for cursor in cursors)
            if all(cursor.value == high for cursor in cursors):
                out.append(high)
                if not all(cursor.advance() for cursor in cursors):
                    self._finish()
                    break
            elif not all(cursor.advance_to(high) for cursor in cursors):
                self._finish()
                break
        if not out:
            return None
        return Batch(array("q", out), ordered=True, view=ctx.dict_view)

    def _finish(self) -> None:
        self._done = True
        self.close()

    def close(self) -> None:
        for child in self.children:
            child.close()


class MergeUnion(Operator):
    """K-way sorted-merge union with duplicate elimination (ordered)."""

    ordered = True

    def __init__(self, children: list[Operator]):
        self.children = children
        self._heap: list | None = None
        self._cursors: list[_Cursor] | None = None
        self._last = None
        self._ctx = None

    def open(self, ctx) -> None:
        self._ctx = ctx
        for child in self.children:
            child.open(ctx)
        self._cursors = [_Cursor(c) for c in self.children]
        self._heap = None
        self._last = None

    def next_batch(self) -> Batch | None:
        import heapq
        if self._heap is None:
            self._heap = []
            for index, cursor in enumerate(self._cursors):
                if cursor.ensure():
                    heapq.heappush(self._heap, (cursor.value, index))
        heap = self._heap
        ctx = self._ctx
        size = ctx.engine.batch_size
        out: list = []
        while heap and len(out) < size:
            value, index = heapq.heappop(heap)
            if value != self._last:
                # equal keys from other inputs are popped and dropped on
                # later iterations — that is the duplicate elimination.
                # _last spans batches: a batch may fill exactly at a value
                # another child still holds on the heap, and that leftover
                # must not reopen the next batch.
                out.append(value)
                self._last = value
            cursor = self._cursors[index]
            if cursor.advance():
                heapq.heappush(heap, (cursor.value, index))
        if not out:
            return None
        return Batch(array("q", out), ordered=True, view=ctx.dict_view)

    def close(self) -> None:
        for child in self.children:
            child.close()


class ConcatUnion(Operator):
    """Sequential union: children stream one after another, a seen-set
    drops duplicates. Unordered, but fully lazy — later children are
    not even pulled until earlier ones exhaust, which keeps span and
    substrate accounting identical to the pre-engine executor and lets
    ``Limit`` skip trailing children entirely."""

    ordered = False

    def __init__(self, children: list[Operator]):
        self.children = children
        self._index = 0
        self._seen: set = set()

    def open(self, ctx) -> None:
        for child in self.children:
            child.open(ctx)
        self._index = 0
        self._seen = set()

    def next_batch(self) -> Batch | None:
        while self._index < len(self.children):
            child = self.children[self._index]
            batch = child.next_batch()
            if batch is None:
                child.close()
                self._index += 1
                continue
            fresh = [k for k in batch.keys.tolist()  # unboxed once
                     if k not in self._seen]
            if fresh:
                self._seen.update(fresh)
                return Batch(array("q", fresh), view=batch.view)
        return None

    def close(self) -> None:
        for child in self.children:
            child.close()


class MergeDiff(Operator):
    """Sorted-merge anti-join: ``universe`` rows absent from ``child``
    (the Complement). Streams both sides — no materialized difference
    set, and early termination under ``Limit`` works."""

    ordered = True

    def __init__(self, universe: Operator, child: Operator):
        self.universe = universe
        self.child = child
        self._ctx = None
        self._u: _Cursor | None = None
        self._c: _Cursor | None = None

    def open(self, ctx) -> None:
        self._ctx = ctx
        self.universe.open(ctx)
        self.child.open(ctx)
        self._u = _Cursor(self.universe)
        self._c = _Cursor(self.child)

    def next_batch(self) -> Batch | None:
        u, c = self._u, self._c
        if not u.ensure():
            return None
        c.ensure()
        ctx = self._ctx
        size = ctx.engine.batch_size
        out: list = []
        while not u.exhausted and len(out) < size:
            value = u.value
            if not c.exhausted and c.advance_to(value) and c.value == value:
                u.advance()
                continue
            out.append(value)
            u.advance()
        if not out:
            return None
        return Batch(array("q", out), ordered=True, view=ctx.dict_view)

    def close(self) -> None:
        self.universe.close()
        self.child.close()


class Sort(Operator):
    """Order enforcer: drain the child, dedup, sort, re-chunk. The
    barrier the merge operators need below an unordered input."""

    ordered = True

    def __init__(self, child: Operator):
        self.child = child
        self._chunks: Iterator[Batch] | None = None
        self._ctx = None

    def open(self, ctx) -> None:
        self._ctx = ctx
        self.child.open(ctx)
        self._chunks = None

    def next_batch(self) -> Batch | None:
        if self._chunks is None:
            ctx = self._ctx
            keys = array("q", sorted(set(drain(self.child))))
            self._chunks = chunked(keys, ctx.engine.batch_size,
                                   ordered=True, view=ctx.dict_view)
        return next(self._chunks, None)

    def close(self) -> None:
        self.child.close()


# ---------------------------------------------------------------------------
# Limit
# ---------------------------------------------------------------------------

class LimitOp(Operator):
    """Genuine early termination: after ``count`` rows the child is
    closed and never pulled again — a streaming scan below stops
    mid-corpus."""

    def __init__(self, child: Operator, count: int):
        self.child = child
        self.count = count
        self._remaining = count

    @property
    def ordered(self) -> bool:  # type: ignore[override]
        return self.child.ordered

    def open(self, ctx) -> None:
        self.child.open(ctx)
        self._remaining = self.count

    def next_batch(self) -> Batch | None:
        if self._remaining <= 0:
            return None
        batch = self.child.next_batch()
        if batch is None:
            self._remaining = 0
            return None
        if len(batch) >= self._remaining:
            batch = batch.truncated(self._remaining)
            self._remaining = 0
            self.child.close()  # stop pulling: the scan below halts
            return batch
        self._remaining -= len(batch)
        return batch

    def close(self) -> None:
        self.child.close()


# ---------------------------------------------------------------------------
# Expansion (group navigation)
# ---------------------------------------------------------------------------

class ExpandOperator(Operator):
    """Path-step navigation re-seated on the batch protocol.

    Expansion is forward and *pipelined*: each input batch's
    discoveries stream out before the next input batch is pulled, so a
    ``Limit`` above stops it between batches. Nodes are catalog ids:
    sort keys convert once per batch at the input edge
    (``view.ids_for_keys``) and each emitted set binds back once
    (``view.keys_for_ids``).

    A descendant step reads containment as order (:meth:`_labelled`):
    one :class:`~repro.rvm.replicas.Closure` per execution unions the
    sources' pre-order intervals on the group replica, closes them over
    the few edges outside the spanning forest, and bisects the
    candidates into what became covered — no walk. A child step takes
    one hop per input batch (:meth:`_walk`). The axis decides which.
    """

    def __init__(self, input_op: Operator, candidates_op: Operator | None,
                 axis: Axis):
        self.input_op = input_op
        self.candidates_op = candidates_op
        self.axis = axis
        self._batches: Iterator[Batch] | None = None
        self._ctx = None

    def open(self, ctx) -> None:
        self._ctx = ctx
        self.input_op.open(ctx)
        if self.candidates_op is not None:
            self.candidates_op.open(ctx)
        self._batches = None

    def next_batch(self) -> Batch | None:
        if self._batches is None:
            ctx = self._ctx
            stream = (self._walk() if self.axis is Axis.CHILD
                      else self._labelled(ctx.group_labels()))
            self._batches = chunked_stream(stream, ctx.engine.batch_size,
                                           view=ctx.dict_view)
        return next(self._batches, None)

    def close(self) -> None:
        self.input_op.close()
        if self.candidates_op is not None:
            self.candidates_op.close()

    def _candidate_ids(self) -> list[int] | None:
        """The candidate filter as catalog ids (``None``: no filter)."""
        if self.candidates_op is None:
            return None
        return self._ctx.dict_view.ids_for_keys([*drain(self.candidates_op)])

    def _source_ids(self) -> Iterator[list[int]]:
        """The input's catalog ids, one list per input batch."""
        ids_for_keys = self._ctx.dict_view.ids_for_keys
        return (ids_for_keys(batch.keys)
                for batch in iter(self.input_op.next_batch, None))

    # -- descendants by interval labels ------------------------------------

    def _labelled(self, labels) -> Iterator[int]:
        """Yield the keys of the reached candidates, an input batch at
        a time, off one labels snapshot (a write meanwhile does not
        touch it: the stream finishes on the graph it started with).
        ``expanded_views`` grows by exactly what the BFS would reach."""
        ctx = self._ctx
        keys_for_ids = ctx.dict_view.keys_for_ids
        candidates = self._candidate_ids()
        if candidates is not None:
            candidates = labels.split(candidates)
        closure = labels.closure()
        for sources in self._source_ids():
            ctx.checkpoint()
            spans, loose = closure.extend(sources)
            ctx.expanded_views += closure.count(spans, loose)
            hits = (closure.members(spans, loose) if candidates is None
                    else closure.select(spans, loose, candidates))
            if hits:
                yield from keys_for_ids(hits)

    # -- children by one hop -----------------------------------------------

    def _walk(self) -> Iterator[int]:
        """The child axis: one hop per input batch, yielding the keys of
        the children that no earlier batch reached. ``reached`` is shared
        across input batches, so a view is discovered (and counted into
        ``expanded_views``) once however many sources lead to it."""
        ctx = self._ctx
        children_of_many = ctx.children_ids_of_many
        keys_for_ids = ctx.dict_view.keys_for_ids
        candidates = self._candidate_ids()
        if candidates is not None:
            candidates = set(candidates)
        reached: set = set()
        for sources in self._source_ids():
            if not sources:
                continue
            new = set(children_of_many(sources))
            new -= reached
            if not new:
                continue
            reached |= new
            ctx.expanded_views += len(new)
            hits = new if candidates is None else new & candidates
            if hits:
                yield from keys_for_ids(hits)
