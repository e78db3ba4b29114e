"""Unit tests for the batched engine's operators.

These drive operators directly with static batch sources (no dataspace,
no compiler), pinning the protocol contracts end-to-end tests cannot
see: laziness (who gets pulled when), early close propagation, ordered
stream discipline across batch boundaries, and the engine-wide
determinism rule (equal scores tie-break by URI ascending).
"""

from __future__ import annotations

import pytest

from repro.query.ast import Axis
from repro.query.engine import (
    Batch,
    EngineConfig,
    TopKHeap,
    chunked,
    partitioned_filter,
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
    TopKOperator,
    _Cursor,
    drain,
)


class StaticSource(Operator):
    """Emits pre-built batches, counting pulls and closes."""

    def __init__(self, *chunks, ordered: bool = False,
                 scores: bool = False):
        self.ordered = ordered
        self._chunks = [
            Batch(tuple(u for u, _ in chunk) if scores else tuple(chunk),
                  scores=tuple(s for _, s in chunk) if scores else None,
                  ordered=ordered)
            for chunk in chunks
        ]
        self.pulls = 0
        self.closes = 0
        self._index = 0

    def open(self, ctx) -> None:
        self._index = 0

    def next_batch(self):
        self.pulls += 1
        if self._index >= len(self._chunks):
            return None
        batch = self._chunks[self._index]
        self._index += 1
        return batch

    def close(self) -> None:
        self.closes += 1


class FakeCtx:
    """The slice of ExecutionContext the operators touch.

    Runs the operators in *string mode*: ``dict_view`` is ``None`` and
    the key helpers are identities, so batch keys are URI strings and
    the ordered-stream contract is plain lexicographic order — the same
    ordering the dictionary's integer sort keys encode in production.
    """

    dict_view = None

    def __init__(self, batch_size: int = 4, graph=None):
        self.engine = EngineConfig(batch_size=batch_size)
        self.expanded_views = 0
        self._graph = graph or {}

    def checkpoint(self) -> None:
        pass

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def children_of(self, uri: str):
        return tuple(self._graph.get(uri, ()))

    # identity key mapping (production converts URIs to int64 keys)

    def keys_for_set(self, uris):
        return tuple(sorted(uris))

    def keys_in_order(self, uris):
        return tuple(uris)

    def key_for_uri(self, uri):
        return uri

    def uri_of_key(self, key):
        return key


def run(op: Operator, ctx=None) -> list[str]:
    op.open(ctx if ctx is not None else FakeCtx())
    return list(drain(op))


# -- Batch / chunked ---------------------------------------------------------

class TestBatch:
    def test_score_column_must_match_length(self):
        with pytest.raises(ValueError):
            Batch(uris=("a", "b"), scores=(1.0,))

    def test_truncated_keeps_scores_and_order_flag(self):
        batch = Batch(uris=("a", "b", "c"), scores=(3.0, 2.0, 1.0),
                      ordered=True)
        cut = batch.truncated(2)
        assert cut.uris == ("a", "b")
        assert cut.scores == (3.0, 2.0)
        assert cut.ordered

    def test_truncated_beyond_length_is_identity(self):
        batch = Batch(uris=("a",))
        assert batch.truncated(5) is batch

    def test_chunked_slices_and_flags(self):
        batches = list(chunked("abcdefg", 3, ordered=True))
        assert [b.uris for b in batches] == [
            ("a", "b", "c"), ("d", "e", "f"), ("g",)]
        assert all(b.ordered for b in batches)


# -- cursor ------------------------------------------------------------------

class TestCursor:
    def test_advance_to_skips_across_batches(self):
        source = StaticSource(["a", "c"], ["e", "g"], ordered=True)
        source.open(FakeCtx())
        cursor = _Cursor(source)
        assert cursor.ensure() and cursor.value == "a"
        assert cursor.advance_to("d") and cursor.value == "e"
        assert not cursor.advance_to("z")
        assert cursor.exhausted

    def test_skips_empty_batches(self):
        source = StaticSource([], ["b"], ordered=True)
        source.open(FakeCtx())
        cursor = _Cursor(source)
        assert cursor.ensure() and cursor.value == "b"


# -- top-k -------------------------------------------------------------------

class TestTopKHeap:
    def test_keeps_the_k_best(self):
        heap = TopKHeap(2)
        for uri, score in [("a", 1.0), ("b", 5.0), ("c", 3.0)]:
            heap.push(uri, score)
        assert heap.best_first() == [("b", 5.0), ("c", 3.0)]

    def test_equal_scores_tie_break_by_uri_ascending(self):
        """The engine-wide determinism rule: at equal score the
        lexically smaller URI wins a heap slot and ranks first."""
        heap = TopKHeap(2)
        for uri in ["c", "a", "b"]:
            heap.push(uri, 1.0)
        assert heap.best_first() == [("a", 1.0), ("b", 1.0)]


# -- partitioned filter ------------------------------------------------------

class TestPartitionedFilter:
    def test_matches_sequential_filter_and_preserves_order(self):
        rows = [f"row-{i}" for i in range(100)]
        predicate = lambda row: row.endswith(("0", "5"))  # noqa: E731
        expected = [row for row in rows if predicate(row)]
        assert partitioned_filter(rows, predicate, threads=1) == expected
        assert partitioned_filter(rows, predicate, threads=4) == expected

    def test_more_threads_than_rows(self):
        assert partitioned_filter(["x"], lambda r: True, threads=8) == ["x"]


# -- scans -------------------------------------------------------------------

class TestSetScan:
    def test_fetch_deferred_to_first_pull(self):
        calls = []

        def fetch(ctx):
            calls.append(1)
            return {"b", "a", "c"}

        scan = SetScan(fetch)
        scan.open(FakeCtx(batch_size=2))
        assert calls == []  # open() does no substrate work
        assert list(drain(scan)) == ["a", "b", "c"]  # sorted, chunked
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
        out = list(drain(union))
        assert out == sorted(set(out)) == ["a", "b", "c", "d"]

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


# -- limit / sort / top-k ----------------------------------------------------

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


class TestTopKOperator:
    def test_emits_best_first_with_scores(self):
        source = StaticSource([("a", 1.0), ("b", 9.0)], [("c", 5.0)],
                              scores=True)
        top = TopKOperator(source, 2)
        top.open(FakeCtx())
        batch = top.next_batch()
        assert batch.uris == ("b", "c")
        assert batch.scores == (9.0, 5.0)
        assert source.closes >= 1


# -- expansion ---------------------------------------------------------------

class TestExpandOperator:
    def test_forward_descendant_terminates_on_cycles(self):
        graph = {"a": ("b",), "b": ("c",), "c": ("a",)}  # a 3-cycle
        ctx = FakeCtx(graph=graph)
        expand = ExpandOperator(StaticSource(["a"]), None,
                                Axis.DESCENDANT, "forward")
        out = run(expand, ctx)
        assert sorted(out) == ["a", "b", "c"]
        assert ctx.expanded_views == 3  # each view discovered once

    def test_forward_child_is_one_hop(self):
        graph = {"a": ("b",), "b": ("c",)}
        out = run(ExpandOperator(StaticSource(["a"]), None,
                                 Axis.CHILD, "forward"),
                  FakeCtx(graph=graph))
        assert out == ["b"]

    def test_candidates_filter_the_stream(self):
        graph = {"a": ("b", "c", "d")}
        out = run(ExpandOperator(StaticSource(["a"]),
                                 StaticSource(["c", "d"]),
                                 Axis.CHILD, "forward"),
                  FakeCtx(graph=graph))
        assert sorted(out) == ["c", "d"]

    def test_shared_children_and_self_loops_count_once(self):
        # a diamond (a, b -> c), a self-loop on c, sources in two batches
        graph = {"a": ("c",), "b": ("c", "d"), "c": ("c", "e")}
        ctx = FakeCtx(batch_size=1, graph=graph)
        out = run(ExpandOperator(StaticSource(["a"], ["b"]), None,
                                 Axis.DESCENDANT, "forward"), ctx)
        assert sorted(out) == ["c", "d", "e"]
        assert ctx.expanded_views == 3

    def test_limit_above_does_not_drain_the_input(self):
        """Discoveries stream out per input batch, so a satisfied LIMIT
        stops the walk from pulling the rest of a many-batch input."""
        sources = [f"s{i:02d}" for i in range(40)]
        graph = {s: (f"{s}/x", f"{s}/y") for s in sources}
        source = StaticSource(*[[s] for s in sources])
        limited = LimitOp(ExpandOperator(source, None, Axis.DESCENDANT,
                                         "forward"), 3)
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
    from repro.query.executor import ExecutionContext
    from repro.query.functions import FunctionTable
    return ExecutionContext(rvm, FunctionTable(), **kwargs)


class TestExpandOverReplica:
    def test_cancellation_is_observed_within_one_chunk_of_a_frontier(self):
        """A 10k-node frontier is gathered ``batch_size`` nodes at a
        time with a checkpoint before each chunk: a token that fires
        mid-frontier stops the walk at the next chunk boundary."""
        size = 256
        rvm = replica_rvm("cancelwalk",
                          {"root": [f"leaf/{i}" for i in range(10_000)]})

        class Cancelled(Exception):
            pass

        class Token:
            fired = False

            def check(self):
                if self.fired:
                    raise Cancelled

        token = Token()
        replica = rvm.indexes.group_replica
        gather = replica.children_ids_of_many
        chunks: list[int] = []

        def spy(oids):
            chunks.append(len(oids))
            if len(chunks) == 4:  # the root, then 3 chunks of its leaves
                token.fired = True
            return gather(oids)

        replica.children_ids_of_many = spy
        ctx = _id_context(rvm, cancel_token=token,
                          engine=EngineConfig(batch_size=size))
        view = ctx.dict_view
        expand = ExpandOperator(
            StaticSource([view.key_for("cancelwalk://root")]), None,
            Axis.DESCENDANT, "forward")
        expand.open(ctx)
        with pytest.raises(Cancelled):
            list(drain(expand))
        assert chunks == [1, size, size, size]  # nothing after it fired

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
        expand = ExpandOperator(
            StaticSource([view.key_for("latewalk://root")]), None,
            Axis.DESCENDANT, "forward")
        expand.open(ctx)
        keys = list(drain(expand))
        assert ctx.expanded_views == 3
        assert sorted(view.uri_for(k) for k in keys) == sorted(
            ViewId("latewalk", f"leaf/{n}").uri for n in (0, 1, "late"))
        assert sum(1 for k in keys if k % KEY_GAP) == 1  # the overlay key


# -- name scan ---------------------------------------------------------------

class TestNameScan:
    def test_name_index_may_change_between_pulls(self):
        """The scan reads a snapshot of the name replica: a refresh()
        that adds and removes names between two pulls must not break
        the iteration (it used to raise "dictionary changed size during
        iteration")."""
        from repro.rvm import ResourceViewManager
        rvm = ResourceViewManager()
        names = rvm.indexes.name_index
        uris = [f"namescan://doc/{i:02d}" for i in range(20)]
        for uri in uris:
            names.add(uri, "report.tex")
        ctx = _id_context(rvm, engine=EngineConfig(batch_size=4))
        scan = NameScan("*.tex")
        scan.open(ctx)
        first = scan.next_batch()
        assert len(first) == 4
        names.add("namescan://doc/new", "late.tex")
        names.remove(uris[-1])
        rest = list(drain(scan))
        assert sorted([*first.uris, *ctx.dict_view.uris_for(rest)]) == uris
