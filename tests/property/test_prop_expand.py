"""Property-based tests: the forward expansion against the oracle.

Random group graphs — trees, DAG diamonds, cycles, self-loops, children
shared between sources — are expanded by :class:`ExpandOperator` over
multi-batch inputs, on both axes, with and without a candidate filter,
and the operator must agree with the set-at-a-time oracle
(:mod:`repro.query.engine.reference`) on the answer and on
``expanded_views`` (every discovered view counted once). A descendant
step over a real :class:`GroupReplica` answers from its interval labels
and makes no ``ctx.children_of`` call at all; on the child axis, where
one hop still reads the replica's edges, the substrate counter must
equal the oracle's (every expanded node counted once).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.identity import ViewId
from repro.query.ast import Axis
from repro.query.engine import EngineConfig
from repro.query.engine.operators import ExpandOperator, drain
from repro.query.engine.reference import _forward as reference_forward
from repro.query.plan import AllViews, ExpandStep
from repro.trace import TraceCollector

from ..query.test_engine import StaticSource, _id_context, replica_rvm

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
    evaluator."""
    trace = TraceCollector()
    ctx = _id_context(replica_rvm("expandprop", adjacency), trace=trace)
    node = ExpandStep(input=AllViews(), axis=axis,
                      candidates=None if candidates is None else AllViews())
    answer = reference_forward(
        node, ctx, {_uri(n) for n in sources},
        None if candidates is None else {_uri(n) for n in candidates},
    )
    return answer, ctx.expanded_views, trace.counters.get("ctx.children_of",
                                                          0)


def _check_walk(edges, sources, candidates, axis, batch_size):
    adjacency = _adjacency(edges)
    expected, expanded, calls = _oracle(adjacency, sources, candidates,
                                        axis)
    trace = TraceCollector()
    ctx = _id_context(replica_rvm("expandprop", adjacency), trace=trace,
                      engine=EngineConfig(batch_size=batch_size))
    expand = ExpandOperator(
        StaticSource(*_chunks(sorted(_uri(n) for n in sources),
                              batch_size)),
        None if candidates is None else StaticSource(
            *_chunks(sorted(_uri(n) for n in candidates), batch_size)),
        axis,
    )
    expand.open(ctx)
    got = list(drain(expand))
    assert len(got) == len(set(got))  # a set, delivered in chunks
    assert set(ctx.dict_view.uris_for(got)) == expected
    assert ctx.expanded_views == expanded
    assert trace.counters.get("ctx.children_of", 0) == (
        calls if axis is Axis.CHILD else 0)


class TestFrontierWalkMatchesOracle:
    @given(_EDGES, _NODE_SETS, st.none() | _NODE_SETS, _AXES,
           st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_id_space(self, edges, sources, candidates, axis, batch_size):
        _check_walk(edges, sources, candidates, axis, batch_size)
