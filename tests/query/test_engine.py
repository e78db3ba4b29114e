"""Unit tests for the batched engine's operators.

These drive operators directly with static batch sources (no dataspace,
no compiler), pinning the protocol contracts end-to-end tests cannot
see: laziness (who gets pulled when), early close propagation, ordered
stream discipline across batch boundaries.

The operators run here in the representation production runs: the
fixtures name rows by URI for readability, but :class:`StaticSource`
binds them to ``int64`` sort keys in ``array('q')`` columns through a
real :class:`~repro.rvm.uridict.DictionaryView` (of a dictionary private
to each :class:`FakeCtx`), and assertions decode through that view.
"""

from __future__ import annotations

from array import array

import pytest

from repro.query.ast import Axis
from repro.query.engine import (
    Batch,
    EngineConfig,
    chunked,
)
from repro.query.engine.operators import (
    ConcatUnion,
    ExpandOperator,
    LimitOp,
    MergeDiff,
    MergeIntersect,
    MergeUnion,
    NameScan,
    Operator,
    SetScan,
    Sort,
    _Cursor,
    drain,
)
from repro.rvm.replicas import Labels
from repro.rvm.uridict import UriDictionary, global_uri_dictionary


class StaticSource(Operator):
    """Emits pre-built batches, counting pulls and closes.

    Chunks are written as URIs. ``open`` interns them into the
    context's dictionary — before the first pull captures the
    execution's view, as a sync would — and each pull binds its chunk
    to sort keys."""

    def __init__(self, *chunks, ordered: bool = False):
        self.ordered = ordered
        self._chunks = [list(chunk) for chunk in chunks]
        self.pulls = 0
        self.closes = 0
        self._index = 0
        self._ctx = None

    def open(self, ctx) -> None:
        self._index = 0
        self._ctx = ctx
        ctx.dictionary.intern_many(u for uris in self._chunks
                                   for u in uris)

    def next_batch(self):
        self.pulls += 1
        if self._index >= len(self._chunks):
            return None
        uris = self._chunks[self._index]
        self._index += 1
        view = self._ctx.dict_view
        return Batch(array("q", map(view.key_for, uris)),
                     ordered=self.ordered, view=view)

    def close(self) -> None:
        self.closes += 1


class FakeCtx:
    """The slice of ExecutionContext the operators touch, over a tiny
    private dictionary: like the real context it captures one
    :class:`DictionaryView` lazily, at the first pull, and serves group
    navigation in catalog-id space (here off a ``{uri: children}``
    dict, interned up front): frontier gathers for the child axis,
    interval labels for the descendant axis."""

    def __init__(self, batch_size: int = 4, graph=None):
        self.engine = EngineConfig(batch_size=batch_size)
        self.expanded_views = 0
        self.dictionary = UriDictionary()
        self._graph = graph or {}
        for uri, children in self._graph.items():
            self.dictionary.intern_many([uri, *children])
        self._dict_view = None

    @property
    def dict_view(self):
        if self._dict_view is None:
            self._dict_view = self.dictionary.view()
        return self._dict_view

    def checkpoint(self) -> None:
        pass

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def children_ids_of_many(self, frontier) -> list[int]:
        uri_of, id_of = self.dictionary.uri_of, self.dictionary.id_of
        return [id_of(child) for node in frontier
                for child in self._graph.get(uri_of(node), ())]

    def group_labels(self) -> Labels:
        id_of = self.dictionary.id_of
        return Labels.build({id_of(uri): tuple(map(id_of, children))
                             for uri, children in self._graph.items()})

    def key(self, uri: str) -> int:
        return self.dict_view.key_for(uri)

    def uris(self, keys) -> list[str]:
        """Decode a key sequence (order kept) for an assertion."""
        return list(self.dict_view.uris_for(list(keys)))


def run(op: Operator, ctx=None) -> list[str]:
    ctx = ctx if ctx is not None else FakeCtx()
    op.open(ctx)
    return ctx.uris(drain(op))


def _batch(uris, **kwargs) -> Batch:
    ctx = FakeCtx()
    ctx.dictionary.intern_many(uris)
    return Batch(array("q", map(ctx.key, uris)), view=ctx.dict_view,
                 **kwargs)


# -- Batch / chunked ---------------------------------------------------------

class TestBatch:
    def test_truncated_keeps_order_flag(self):
        batch = _batch(("a", "b", "c"), ordered=True)
        cut = batch.truncated(2)
        assert cut.uris == ("a", "b")
        assert cut.ordered

    def test_truncated_beyond_length_is_identity(self):
        batch = _batch(("a",))
        assert batch.truncated(5) is batch

    def test_chunked_slices_and_flags(self):
        whole = _batch("abcdefg")
        batches = list(chunked(whole.keys, 3, ordered=True,
                               view=whole.view))
        assert all(isinstance(b.keys, array) for b in batches)
        assert [b.uris for b in batches] == [
            ("a", "b", "c"), ("d", "e", "f"), ("g",)]
        assert all(b.ordered for b in batches)


# -- cursor ------------------------------------------------------------------

class TestCursor:
    def test_advance_to_skips_across_batches(self):
        source = StaticSource(["a", "c"], ["e", "g"], ordered=True)
        ctx = FakeCtx()
        source.open(ctx)
        cursor = _Cursor(source)
        assert cursor.ensure() and cursor.value == ctx.key("a")
        # "d" and "z" are in no batch: late arrivals, keyed in URI order
        assert cursor.advance_to(ctx.key("d"))
        assert cursor.value == ctx.key("e")
        assert not cursor.advance_to(ctx.key("z"))
        assert cursor.exhausted

    def test_skips_empty_batches(self):
        source = StaticSource([], ["b"], ordered=True)
        ctx = FakeCtx()
        source.open(ctx)
        cursor = _Cursor(source)
        assert cursor.ensure() and cursor.value == ctx.key("b")


# -- scans -------------------------------------------------------------------

class TestSetScan:
    def test_fetch_deferred_to_first_pull(self):
        calls = []
        ctx = FakeCtx(batch_size=2)
        ids = [ctx.dictionary.intern(uri) for uri in ("b", "a", "c")]

        def fetch(ctx):
            calls.append(1)
            return ids

        scan = SetScan(fetch)
        scan.open(ctx)
        assert calls == []  # open() does no substrate work
        assert ctx.uris(drain(scan)) == ["a", "b", "c"]  # sorted, chunked
        assert calls == [1]


# -- merge family ------------------------------------------------------------

def _ordered(*uris):
    return StaticSource(list(uris), ordered=True)


class TestMergeOperators:
    def test_intersect_across_batch_boundaries(self):
        left = StaticSource(["a", "b"], ["d", "f"], ordered=True)
        right = StaticSource(["b", "d"], ["e", "f", "g"], ordered=True)
        assert run(MergeIntersect([left, right]),
                   FakeCtx(batch_size=2)) == ["b", "d", "f"]

    def test_intersect_empty_first_input_skips_the_rest(self):
        empty = StaticSource(ordered=True)
        sibling = _ordered("a", "b")
        assert run(MergeIntersect([empty, sibling])) == []
        assert sibling.pulls == 0  # never pulled: the short-circuit
        assert sibling.closes >= 1  # but still released

    def test_union_dedups_across_inputs(self):
        out = run(MergeUnion([_ordered("a", "c"), _ordered("b", "c", "d")]),
                  FakeCtx(batch_size=2))
        assert out == ["a", "b", "c", "d"]

    def test_union_dedups_across_batch_boundaries(self):
        # batch fills exactly at "b" while the other child's equal "b"
        # is still on the heap — the next batch must not re-emit it
        union = MergeUnion([_ordered("a", "b"), _ordered("b", "c")])
        union.open(FakeCtx(batch_size=2))
        batches = []
        while (batch := union.next_batch()) is not None:
            batches.append(batch.uris)
        assert batches == [("a", "b"), ("c",)]

    def test_union_stream_is_strictly_increasing(self):
        union = MergeUnion([_ordered("a", "b", "c"), _ordered("b", "c", "d")])
        union.open(FakeCtx(batch_size=1))
        keys = list(drain(union))
        assert keys == sorted(set(keys))  # the ordered-stream contract
        assert list(union._ctx.dict_view.uris_for(keys)) \
            == ["a", "b", "c", "d"]

    def test_diff_streams_the_anti_join(self):
        universe = _ordered("a", "b", "c", "d", "e")
        assert run(MergeDiff(universe, _ordered("b", "d"))) == ["a", "c", "e"]

    def test_diff_with_empty_subtrahend(self):
        assert run(MergeDiff(_ordered("a", "b"), _ordered())) == ["a", "b"]


class TestConcatUnion:
    def test_dedups_with_a_seen_set(self):
        out = run(ConcatUnion([StaticSource(["b", "a"]),
                               StaticSource(["a", "c"])]))
        assert out == ["b", "a", "c"]  # pipeline order, not sorted

    def test_later_children_not_pulled_until_earlier_exhaust(self):
        first = StaticSource(["a"], ["b"])
        second = StaticSource(["c"])
        union = ConcatUnion([first, second])
        union.open(FakeCtx())
        assert union.next_batch().uris == ("a",)
        assert second.pulls == 0


# -- limit / sort ------------------------------------------------------------

class TestLimitOp:
    def test_truncates_and_closes_the_child_early(self):
        source = StaticSource(["a", "b", "c"], ["d", "e"])
        limit = LimitOp(source, 2)
        limit.open(FakeCtx())
        batch = limit.next_batch()
        assert batch.uris == ("a", "b")
        assert source.pulls == 1  # the second batch is never produced
        assert source.closes >= 1  # the scan below was told to stop
        assert limit.next_batch() is None
        assert source.pulls == 1  # ...and is not pulled again

    def test_limit_skips_trailing_union_children(self):
        first = StaticSource(["a", "b"])
        second = StaticSource(["c"])
        out = run(LimitOp(ConcatUnion([first, second]), 2))
        assert out == ["a", "b"]
        assert second.pulls == 0

    def test_limit_larger_than_stream(self):
        assert run(LimitOp(StaticSource(["a"]), 9)) == ["a"]


class TestSort:
    def test_orders_and_dedups(self):
        out = run(Sort(StaticSource(["c", "a"], ["b", "a"])),
                  FakeCtx(batch_size=2))
        assert out == ["a", "b", "c"]


# -- expansion ---------------------------------------------------------------

class TestExpandOperator:
    def test_forward_descendant_terminates_on_cycles(self):
        graph = {"a": ("b",), "b": ("c",), "c": ("a",)}  # a 3-cycle
        ctx = FakeCtx(graph=graph)
        expand = ExpandOperator(StaticSource(["a"]), None,
                                Axis.DESCENDANT)
        out = run(expand, ctx)
        assert sorted(out) == ["a", "b", "c"]
        assert ctx.expanded_views == 3  # each view discovered once

    def test_forward_child_is_one_hop(self):
        graph = {"a": ("b",), "b": ("c",)}
        out = run(ExpandOperator(StaticSource(["a"]), None,
                                 Axis.CHILD),
                  FakeCtx(graph=graph))
        assert out == ["b"]

    def test_candidates_filter_the_stream(self):
        graph = {"a": ("b", "c", "d")}
        out = run(ExpandOperator(StaticSource(["a"]),
                                 StaticSource(["c", "d"]),
                                 Axis.CHILD),
                  FakeCtx(graph=graph))
        assert sorted(out) == ["c", "d"]

    def test_shared_children_and_self_loops_count_once(self):
        # a diamond (a, b -> c), a self-loop on c, sources in two batches
        graph = {"a": ("c",), "b": ("c", "d"), "c": ("c", "e")}
        ctx = FakeCtx(batch_size=1, graph=graph)
        out = run(ExpandOperator(StaticSource(["a"], ["b"]), None,
                                 Axis.DESCENDANT), ctx)
        assert sorted(out) == ["c", "d", "e"]
        assert ctx.expanded_views == 3

    def test_limit_above_does_not_drain_the_input(self):
        """Discoveries stream out per input batch, so a satisfied LIMIT
        stops the walk from pulling the rest of a many-batch input."""
        sources = [f"s{i:02d}" for i in range(40)]
        graph = {s: (f"{s}/x", f"{s}/y") for s in sources}
        source = StaticSource(*[[s] for s in sources])
        limited = LimitOp(ExpandOperator(source, None, Axis.DESCENDANT),
                          3)
        out = run(limited, FakeCtx(batch_size=2, graph=graph))
        assert len(out) == 3
        assert source.pulls <= 3  # not the 41 pulls a drain would take


# -- expansion over the replica (catalog-id space) ---------------------------

def replica_rvm(authority: str, adjacency: dict):
    """An RVM whose group replica holds exactly ``adjacency`` (node
    name -> child names; a node's URI is ``ViewId(authority, name)``)."""
    from repro.core.identity import ViewId
    from repro.core.resource_view import ResourceView
    from repro.rvm import ResourceViewManager
    views: dict = {}

    def make(name):
        if name not in views:
            views[name] = ResourceView(
                str(name),
                group=lambda n=name: [make(m) for m in adjacency.get(n, ())],
                view_id=ViewId(authority, str(name)),
            )
        return views[name]

    rvm = ResourceViewManager()
    for name in adjacency:
        rvm.indexes.group_replica.add(make(name))
    return rvm


def _id_context(rvm, **kwargs):
    """A real ExecutionContext, plus the handle :class:`StaticSource`
    interns through (a real context's dictionary is the process's)."""
    from repro.query.executor import ExecutionContext
    from repro.query.functions import FunctionTable
    ctx = ExecutionContext(rvm, FunctionTable(), **kwargs)
    ctx.dictionary = global_uri_dictionary()
    return ctx


class _Cancelled(Exception):
    pass


class _Token:
    fired = False

    def check(self):
        if self.fired:
            raise _Cancelled


class TestExpandOverReplica:
    def test_cancellation_is_observed_within_one_chunk_of_a_frontier(self):
        """A child step over a 10k-node frontier gathers it
        ``batch_size`` nodes at a time with a checkpoint before each
        chunk: a token that fires mid-frontier stops the walk at the
        next chunk boundary."""
        size = 256
        leaves = [f"leaf/{i}" for i in range(10_000)]
        rvm = replica_rvm("cancelwalk", {"root": leaves})
        token = _Token()
        replica = rvm.indexes.group_replica
        gather = replica.children_ids_of_many
        chunks: list[int] = []

        def spy(oids):
            chunks.append(len(oids))
            if len(chunks) == 3:
                token.fired = True
            return gather(oids)

        replica.children_ids_of_many = spy
        ctx = _id_context(rvm, cancel_token=token,
                          engine=EngineConfig(batch_size=size))
        expand = ExpandOperator(
            StaticSource([f"cancelwalk://{leaf}" for leaf in leaves]), None,
            Axis.CHILD)
        expand.open(ctx)
        with pytest.raises(_Cancelled):
            list(drain(expand))
        assert chunks == [size, size, size]  # nothing after it fired

    def test_cancellation_is_observed_before_a_label_build(self):
        """A descendant step checks the token before it builds the
        replica's labels, and once per input batch after that."""
        rvm = replica_rvm("cancellabels", {"top": ["a", "b"], "a": ["c"]})
        replica = rvm.indexes.group_replica
        token = _Token()
        token.fired = True
        ctx = _id_context(rvm, cancel_token=token)
        expand = ExpandOperator(StaticSource(["cancellabels://top"]), None,
                                Axis.DESCENDANT)
        expand.open(ctx)
        with pytest.raises(_Cancelled):
            list(drain(expand))
        assert replica._labels is None  # nothing was built
        token.fired = False
        expand = ExpandOperator(
            StaticSource(["cancellabels://top"], ["cancellabels://a"]),
            None, Axis.DESCENDANT)
        expand.open(_id_context(rvm, cancel_token=token,
                                engine=EngineConfig(batch_size=3)))
        assert len(expand.next_batch()) == 3
        token.fired = True
        with pytest.raises(_Cancelled):
            expand.next_batch()

    def test_late_interned_child_takes_the_overlay_path(self):
        """A child interned after the execution captured its dictionary
        view has an id past the view's id→key array: it binds through
        the string overlay and still materializes."""
        from repro.core.identity import ViewId
        from repro.core.resource_view import ResourceView
        from repro.rvm.uridict import KEY_GAP
        rvm = replica_rvm("latewalk", {"root": ["leaf/0", "leaf/1"]})
        ctx = _id_context(rvm)
        view = ctx.dict_view  # the snapshot: later ids are "late"
        late = ResourceView("late", view_id=ViewId("latewalk", "leaf/late"))
        parent = ResourceView("parent", group=lambda: [late],
                              view_id=ViewId("latewalk", "leaf/0"))
        rvm.indexes.group_replica.add(parent)
        late_id = view._dictionary.id_of(late.view_id.uri)
        assert late_id >= len(view._key_of_id)
        expand = ExpandOperator(StaticSource(["latewalk://root"]), None,
                                Axis.DESCENDANT)
        expand.open(ctx)
        keys = list(drain(expand))
        assert ctx.expanded_views == 3
        assert sorted(view.uri_for(k) for k in keys) == sorted(
            ViewId("latewalk", f"leaf/{n}").uri for n in (0, 1, "late"))
        assert sum(1 for k in keys if k % KEY_GAP) == 1  # the overlay key


# -- expansion from a late id ------------------------------------------------

class TestExpandLateId:
    def test_uncatalogued_root_expands_through_a_late_id(self):
        """``/*/*`` over a plugin that was registered but never synced:
        its root is in no catalog, so ``root_ids`` interns it after the
        execution captured its view — a late id, bound through the
        overlay. The group replica holds no edge out of it, so the
        child step reaches only the synced source's children, exactly
        as the oracle does."""
        from repro.query import QueryProcessor
        from repro.query.engine import reference_execute
        from repro.query.executor import ExecutionContext
        from repro.rvm import ResourceViewManager
        from repro.rvm.plugins import FilesystemPlugin
        from repro.vfs import VirtualFileSystem
        rvm = ResourceViewManager()
        for authority, synced in (("fs", True), ("lateroot", False)):
            fs = VirtualFileSystem()
            fs.mkdir("/docs", parents=True)
            fs.write_file("/docs/a.txt", "alpha")
            rvm.register_plugin(FilesystemPlugin(fs, authority=authority))
            if synced:
                rvm.sync_all()
        assert "lateroot:///" not in rvm.catalog
        assert global_uri_dictionary().id_of("lateroot:///") is None
        processor = QueryProcessor(rvm)
        stream = processor.execute_iter("/*/*")
        answer = set(stream)
        assert "lateroot:///" in stream._ctx.dict_view._overlay
        assert "fs:///docs" in answer
        assert not any(uri.startswith("lateroot:") for uri in answer)
        oracle = ExecutionContext(rvm, processor.functions)
        plan = processor._prepared_plan(processor.prepare("/*/*"), oracle)
        assert answer == reference_execute(plan, oracle)


# -- name scan ---------------------------------------------------------------

class TestNameScan:
    def test_name_index_may_change_between_pulls(self):
        """The scan reads an immutable snapshot of the catalog's name
        dictionary: a refresh() that creates and empties name buckets
        between two pulls must not break the iteration (the row scan it
        replaced once raised "dictionary changed size during
        iteration"), every view the writer left alone is returned
        exactly once, and the next scan sees the new names."""
        from repro.core.identity import ViewId
        from repro.core.resource_view import ResourceView
        from repro.rvm import ResourceViewManager
        rvm = ResourceViewManager()
        views = [ResourceView(f"report-{i:02d}.tex",
                              view_id=ViewId("namescan", f"doc/{i:02d}"))
                 for i in range(20)]
        for view in views:
            rvm.catalog.register(view, kind="base")
        uris = [view.view_id.uri for view in views]
        ctx = _id_context(rvm, engine=EngineConfig(batch_size=4))
        scan = NameScan("*.tex")
        scan.open(ctx)
        first = scan.next_batch()
        assert len(first) == 4
        late = ResourceView("late.tex", view_id=ViewId("namescan", "doc/new"))
        rvm.catalog.register(late, kind="base")
        rvm.catalog.unregister(uris[-1])
        rest = list(drain(scan))
        assert sorted([*first.uris, *ctx.dict_view.uris_for(rest)]) \
            == uris[:-1]
        ctx = _id_context(rvm)
        scan.open(ctx)
        assert sorted(ctx.dict_view.uris_for(list(drain(scan)))) \
            == sorted([*uris[:-1], late.view_id.uri])
