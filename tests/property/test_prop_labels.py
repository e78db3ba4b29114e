"""Property-based tests: the group replica's interval labels against
its breadth-first walk.

Random graphs — trees, DAG diamonds, cycles, self-loops, a child listed
in both the set and the sequence part — go through random write
sequences: add a new node, replace a node's children (adding and
removing some), remove a leaf or an internal node, re-add a node after
its removal. The writes feed the labels' overlay (late edges, dropped
edges, detached leaves) or drop the snapshot for a rebuild. After every
step the reach of :class:`~repro.rvm.replicas.Closure` — from one
source, from a source set, and grown across two batches — must equal
:meth:`GroupReplica.descendant_ids`, the write path's BFS, member for
member and in its count, and a candidate filter must select exactly
the reached candidates.
"""

import os

from hypothesis import given, settings, strategies as st

from repro.core.components import GroupComponent, ViewSequence
from repro.core.identity import ViewId
from repro.rvm.replicas import GroupReplica

#: full count under CI's derandomized profile, a sample locally (see
#: tests/conftest.py for the profiles)
_EXAMPLES = 1000 if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 150

NODES = 12
_NODE = st.integers(0, NODES - 1)
_KIDS = st.lists(_NODE, max_size=5)
_GRAPH = st.dictionaries(_NODE, st.tuples(_KIDS, _KIDS), max_size=NODES)
_STEP = st.one_of(
    st.tuples(st.just("add"), _NODE, _KIDS, _KIDS),
    st.tuples(st.just("remove"), _NODE),
)
_NODE_SETS = st.sets(_NODE, max_size=5)


class _Member:
    __slots__ = ("view_id",)

    def __init__(self, node: int):
        self.view_id = ViewId("labelprop", str(node))


def _id(replica: GroupReplica, node: int) -> int:
    return replica._dictionary.intern(ViewId("labelprop", str(node)).uri)


def _add(replica: GroupReplica, node: int, kids, sequence) -> None:
    replica.add_group(ViewId("labelprop", str(node)), GroupComponent(
        set_part=ViewSequence([_Member(k) for k in kids]),
        seq_part=ViewSequence([_Member(k) for k in sequence])))


def _bfs(replica: GroupReplica, sources) -> set[int]:
    reached: set[int] = set()
    for source in sources:
        reached |= replica.descendant_ids(source)
    return reached


def _check(replica: GroupReplica, sources, later, candidates) -> None:
    ids = [_id(replica, n) for n in range(NODES)]
    labels = replica.labels()
    for node in ids:  # every single source
        closure = labels.closure()
        spans, loose = closure.extend([node])
        members = closure.members(spans, loose)
        assert len(members) == len(set(members))
        assert set(members) == replica.descendant_ids(node)
        assert closure.count(spans, loose) == len(members)
    first = [ids[n] for n in sources]
    second = [ids[n] for n in later]
    wanted = {ids[n] for n in candidates}
    closure = labels.closure()
    reached: list[int] = []
    chosen: list[int] = []
    counted = 0
    for batch in (first, second):  # one closure across two input batches
        spans, loose = closure.extend(batch)
        reached += closure.members(spans, loose)
        chosen += closure.select(spans, loose, labels.split(wanted))
        counted += closure.count(spans, loose)
    expected = _bfs(replica, first + second)
    assert len(reached) == len(set(reached)) == counted
    assert set(reached) == expected
    assert sorted(chosen) == sorted(expected & wanted)


class TestLabelsMatchTheWalk:
    @given(_GRAPH, st.lists(_STEP, max_size=30), _NODE_SETS, _NODE_SETS,
           _NODE_SETS)
    @settings(max_examples=_EXAMPLES, deadline=None)
    def test_reach_and_count_after_every_write(self, graph, steps, sources,
                                               later, candidates):
        replica = GroupReplica()
        for node, (kids, sequence) in graph.items():
            _add(replica, node, kids, sequence)
        _check(replica, sources, later, candidates)
        for step in steps:
            if step[0] == "add":
                _add(replica, *step[1:])
            else:
                replica.remove(ViewId("labelprop", str(step[1])).uri)
            _check(replica, sources, later, candidates)
