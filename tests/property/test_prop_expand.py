"""Property-based tests: the frontier-at-a-time forward expansion.

Random group graphs — trees, DAG diamonds, cycles, self-loops, children
shared between sources — are walked by :class:`ExpandOperator` over
multi-batch inputs, on both axes, with and without a candidate filter,
and the operator must agree with the set-at-a-time oracle
(:mod:`repro.query.engine.reference`) on three things: the answer,
``expanded_views`` (every discovered view counted once) and the
``ctx.children_of`` substrate counter (every expanded node counted
once). The same graphs run through both node representations the one
BFS loop serves: catalog ids over a real :class:`GroupReplica`, and URI
strings over a plain ``children_of`` (the operator tests' string mode).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.identity import ViewId
from repro.query.ast import Axis
from repro.query.engine import EngineConfig
from repro.query.engine.operators import ExpandOperator, drain
from repro.query.engine.reference import _forward as reference_forward
from repro.query.executor import ExecutionContext
from repro.query.functions import FunctionTable
from repro.query.plan import AllViews, ExpandStep
from repro.trace import TraceCollector

from ..query.test_engine import FakeCtx, StaticSource, replica_rvm

NODES = 14
_EDGES = st.sets(st.tuples(st.integers(0, NODES - 1),
                           st.integers(0, NODES - 1)), max_size=40)
_NODE_SETS = st.sets(st.integers(0, NODES - 1), max_size=NODES)
_AXES = st.sampled_from([Axis.CHILD, Axis.DESCENDANT])


def _uri(node: int) -> str:
    return ViewId("expandprop", str(node)).uri


def _adjacency(edges) -> dict[int, list[int]]:
    return {n: sorted(b for a, b in edges if a == n) for n in range(NODES)}


def _chunks(items: list, size: int) -> list[tuple]:
    return [tuple(items[i:i + size]) for i in range(0, len(items), size)]


def _oracle(adjacency, sources, candidates, axis):
    """(answer, expanded_views, children_of calls) of the reference
    evaluator over the replica."""
    trace = TraceCollector()
    ctx = ExecutionContext(replica_rvm("expandprop", adjacency),
                           FunctionTable(), trace=trace)
    node = ExpandStep(input=AllViews(), axis=axis, strategy="forward",
                      candidates=None if candidates is None else AllViews())
    answer = reference_forward(
        node, ctx, {_uri(n) for n in sources},
        None if candidates is None else {_uri(n) for n in candidates},
    )
    return answer, ctx.expanded_views, trace.counters.get("ctx.children_of",
                                                          0)


class _CountingCtx(FakeCtx):
    """String mode, counting the per-view ``children_of`` calls."""

    children_of_calls = 0

    def children_of(self, uri: str):
        self.children_of_calls += 1
        return super().children_of(uri)


class TestFrontierWalkMatchesOracle:
    @given(_EDGES, _NODE_SETS, st.none() | _NODE_SETS, _AXES,
           st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_id_space(self, edges, sources, candidates, axis, batch_size):
        adjacency = _adjacency(edges)
        expected, expanded, calls = _oracle(adjacency, sources, candidates,
                                            axis)
        trace = TraceCollector()
        ctx = ExecutionContext(replica_rvm("expandprop", adjacency),
                               FunctionTable(), trace=trace,
                               engine=EngineConfig(batch_size=batch_size))
        view = ctx.dict_view
        key = lambda n: view.key_for(_uri(n))  # noqa: E731
        expand = ExpandOperator(
            StaticSource(*_chunks([key(n) for n in sorted(sources)],
                                  batch_size)),
            None if candidates is None else StaticSource(
                *_chunks(sorted(key(n) for n in candidates), batch_size)),
            axis, "forward",
        )
        expand.open(ctx)
        got = list(drain(expand))
        assert len(got) == len(set(got))  # a set, delivered in chunks
        assert {view.uri_for(k) for k in got} == expected
        assert ctx.expanded_views == expanded
        assert trace.counters.get("ctx.children_of", 0) == calls

    @given(_EDGES, _NODE_SETS, st.none() | _NODE_SETS, _AXES,
           st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_uri_space(self, edges, sources, candidates, axis, batch_size):
        adjacency = _adjacency(edges)
        expected, expanded, calls = _oracle(adjacency, sources, candidates,
                                            axis)
        ctx = _CountingCtx(batch_size, {
            _uri(n): [_uri(m) for m in members]
            for n, members in adjacency.items()})
        expand = ExpandOperator(
            StaticSource(*_chunks(sorted(_uri(n) for n in sources),
                                  batch_size)),
            None if candidates is None else StaticSource(
                *_chunks(sorted(_uri(n) for n in candidates), batch_size)),
            axis, "forward",
        )
        expand.open(ctx)
        got = list(drain(expand))
        assert len(got) == len(set(got))
        assert set(got) == expected
        assert ctx.expanded_views == expanded
        assert ctx.children_of_calls == calls
