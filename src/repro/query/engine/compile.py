"""Compiling a logical plan tree into a physical operator tree.

The compiler resolves each :class:`~repro.query.plan.PlanNode` to a
batched operator, threads the *ordered* physical property downward
(merge operators require sorted inputs; a plain scan does not), and
inserts :class:`~.operators.Sort` enforcers — recorded as
``enforce-ordered`` rewrite events — where an unordered stream feeds an
order-requiring parent. With a trace active, every node is wrapped in a
:class:`~.traced.TracedOperator` so EXPLAIN ANALYZE sees the pull
boundary.
"""

from __future__ import annotations

from ...core.errors import QueryExecutionError
from ..plan import (
    AllViews,
    ClassLookup,
    Complement,
    ContentSearch,
    ExpandStep,
    Intersect,
    Limit,
    NameEquals,
    NamePattern,
    PlanNode,
    RootViews,
    TupleCompare,
    Union,
)
from .operators import (
    CatalogScan,
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
)
from .traced import TracedOperator


def compile_plan(node: PlanNode, ctx, *,
                 require_ordered: bool = False) -> Operator:
    """The physical operator tree for ``node`` (not yet opened)."""
    return _compile(node, ctx, require_ordered)


def _compile(node: PlanNode, ctx, ordered: bool) -> Operator:
    op = _physical(node, ctx, ordered)
    if ctx.trace is not None:
        op = TracedOperator(op, operator=type(node).__name__,
                            detail=node.describe(), estimate=node.estimate)
    if ordered and not op.ordered:
        if ctx.trace is not None:
            ctx.trace.record_rewrite(
                "enforce-ordered",
                f"Sort inserted above {node.describe()}",
            )
            return TracedOperator(Sort(op), operator="Sort",
                                  detail=f"Sort({node.describe()})",
                                  estimate=node.estimate)
        return Sort(op)
    return op


def _physical(node: PlanNode, ctx, ordered: bool) -> Operator:
    if isinstance(node, AllViews):
        # the catalog scan streams the id keyset in sort-key order, so
        # it serves ordered and unordered parents alike
        return CatalogScan()
    if isinstance(node, RootViews):
        return SetScan(lambda c: c.root_ids())
    if isinstance(node, ContentSearch):
        return SetScan(lambda c: c.content_search_ids(
            node.text, is_phrase=node.is_phrase, wildcard=node.wildcard
        ))
    if isinstance(node, NameEquals):
        return SetScan(lambda c: c.name_equals_ids(node.name))
    if isinstance(node, NamePattern):
        if ordered:
            # the substrate lookup already materializes; sorting it
            # directly beats a Sort enforcer over the streaming scan
            return SetScan(lambda c: c.name_pattern_ids(node.pattern))
        return NameScan(node.pattern)
    if isinstance(node, ClassLookup):
        return SetScan(lambda c: c.class_lookup_ids(node.class_name))
    if isinstance(node, TupleCompare):
        return SetScan(lambda c: c.tuple_compare_ids(
            node.attribute, node.op, node.value
        ))
    if isinstance(node, Intersect):
        return MergeIntersect([_compile(p, ctx, True) for p in node.parts])
    if isinstance(node, Union):
        if ordered:
            return MergeUnion([_compile(p, ctx, True) for p in node.parts])
        return ConcatUnion([_compile(p, ctx, False) for p in node.parts])
    if isinstance(node, Complement):
        # the universe keyset hands off to sort keys with no string work
        return MergeDiff(universe=SetScan(lambda c: c.all_ids()),
                         child=_compile(node.part, ctx, True))
    if isinstance(node, ExpandStep):
        candidates = (_compile(node.candidates, ctx, False)
                      if node.candidates is not None else None)
        return ExpandOperator(_compile(node.input, ctx, False), candidates,
                              node.axis)
    if isinstance(node, Limit):
        return LimitOp(_compile(node.part, ctx, ordered), node.count)
    raise QueryExecutionError(
        f"cannot compile plan node {type(node).__name__}"
    )
