"""Rule-based plan optimization.

The 2006 prototype used rule-based optimization (cost-based was future
work); we implement the same flavour:

* **flatten** nested intersections/unions;
* **reorder** intersection inputs so cheap, selective index lookups
  (class, exact name) run before full-text search, tuple ranges, name
  scans, and complements — the first input seeds the running
  intersection, and every later input benefits from early emptiness;
* **short-circuit** degenerate shapes (single-child inner nodes);
* **push limits down**: nested limits collapse to the smaller count,
  and a limit over a union caps each branch (sound because every
  operator emits distinct rows, so k distinct union results need at
  most the first k of any branch) — together with the engine's
  early-terminating ``LimitOp`` this keeps LIMIT cost independent of
  corpus size.

Every rewrite may be recorded into a
:class:`~repro.trace.TraceCollector` (pass ``trace=``), which is how
``EXPLAIN ANALYZE`` shows *which* rules actually fired for a query —
the reorderings were previously invisible from the outside.
"""

from __future__ import annotations

from .plan import (
    AllViews,
    Complement,
    ExpandStep,
    Intersect,
    Limit,
    PlanNode,
    Union,
)


def optimize(plan: PlanNode, trace=None) -> PlanNode:
    """Apply all rewrite rules bottom-up until stable (single pass is
    sufficient for this rule set). ``trace`` records applied rewrites."""
    return _rewrite(plan, trace)


def _record(trace, rule: str, detail: str) -> None:
    if trace is not None:
        trace.record_rewrite(rule, detail)


def _describe_parts(parts: list[PlanNode]) -> str:
    return "[" + ", ".join(p.describe() for p in parts) + "]"


def _rewrite(node: PlanNode, trace=None) -> PlanNode:
    if isinstance(node, Intersect):
        parts = _flatten_intersect([_rewrite(p, trace) for p in node.parts],
                                   trace)
        ordered = sorted(parts, key=lambda p: p.COST)
        if ordered != parts:
            _record(trace, "reorder-intersect",
                    f"{_describe_parts(parts)} -> "
                    f"{_describe_parts(ordered)}")
        if len(ordered) == 1:
            _record(trace, "collapse-single-child",
                    f"Intersect({ordered[0].describe()}) -> "
                    f"{ordered[0].describe()}")
            return ordered[0]
        return Intersect(tuple(ordered))
    if isinstance(node, Union):
        parts = _flatten_union([_rewrite(p, trace) for p in node.parts],
                               trace)
        if len(parts) == 1:
            _record(trace, "collapse-single-child",
                    f"Union({parts[0].describe()}) -> "
                    f"{parts[0].describe()}")
            return parts[0]
        return Union(tuple(parts))
    if isinstance(node, Complement):
        inner = _rewrite(node.part, trace)
        if isinstance(inner, Complement):
            _record(trace, "eliminate-double-negation",
                    f"Complement(Complement({inner.part.describe()})) -> "
                    f"{inner.part.describe()}")
            return inner.part  # NOT NOT x = x
        return Complement(inner)
    if isinstance(node, ExpandStep):
        candidates = (_rewrite(node.candidates, trace)
                      if node.candidates is not None else None)
        if isinstance(candidates, AllViews):
            # expansion already yields all reached views
            _record(trace, "drop-universe-candidates",
                    "ExpandStep candidates AllViews -> (none)")
            candidates = None
        return ExpandStep(input=_rewrite(node.input, trace), axis=node.axis,
                          candidates=candidates)
    if isinstance(node, Limit):
        return _limit(_rewrite(node.part, trace), node.count, trace)
    return node


def _limit(part: PlanNode, count: int, trace=None) -> PlanNode:
    """Place a limit of ``count`` over ``part``, pushing it down."""
    if isinstance(part, Limit):
        merged = min(count, part.count)
        _record(trace, "collapse-limit",
                f"Limit({count})(Limit({part.count})) -> Limit({merged})")
        return _limit(part.part, merged, trace)
    if isinstance(part, Union) and len(part.parts) > 1:
        capped = tuple(
            p if isinstance(p, Limit) and p.count <= count
            else _limit(p, count, trace)
            for p in part.parts
        )
        if capped != part.parts:
            _record(trace, "push-limit-into-union",
                    f"Limit({count}) pushed into "
                    f"{len(part.parts)} union branches")
        return Limit(part=Union(capped), count=count)
    return Limit(part=part, count=count)


def _flatten_intersect(parts: list[PlanNode], trace=None) -> list[PlanNode]:
    out: list[PlanNode] = []
    for part in parts:
        if isinstance(part, Intersect):
            _record(trace, "flatten-intersect",
                    f"inlined {_describe_parts(list(part.parts))}")
            out.extend(part.parts)
        elif isinstance(part, AllViews):
            # intersecting with the universe is a no-op
            _record(trace, "drop-universe-input",
                    "Intersect input AllViews dropped")
            continue
        else:
            out.append(part)
    return out or [AllViews()]


def _flatten_union(parts: list[PlanNode], trace=None) -> list[PlanNode]:
    out: list[PlanNode] = []
    for part in parts:
        if isinstance(part, Union):
            _record(trace, "flatten-union",
                    f"inlined {_describe_parts(list(part.parts))}")
            out.extend(part.parts)
        else:
            out.append(part)
    return out
