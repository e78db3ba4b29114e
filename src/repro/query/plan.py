"""Physical query plans over the RVM's indexes and replicas.

Every plan node *describes* a set of view URIs. Leaf nodes name one
index access: the content full-text index, the name index/replica, the
catalog's class index, or the vertically partitioned tuple index. Inner
nodes combine sets (intersect/union/complement), navigate the group
replica (:class:`ExpandStep` — the prototype's *forward expansion*), or
truncate (:class:`Limit`).

Execution lives in :mod:`repro.query.engine`: the compiler lowers this
node tree to batched pull-based operators
(:func:`~repro.query.engine.iter_batches`, or
:func:`~repro.query.engine.materialize_set` for the whole answer).

Cost estimates are deliberately coarse (rule-based optimization, like
the 2006 prototype — "cost based optimization will be explored as
another avenue of future work"): each node reports an ordinal cost class
used to order intersections.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import TYPE_CHECKING

from ..core.errors import QueryExecutionError
from .ast import Axis, CompareOp

if TYPE_CHECKING:  # pragma: no cover
    from .executor import ExecutionContext


def wildcard_regex(pattern: str) -> re.Pattern[str]:
    """Compile a ``*``/``?`` name pattern into an anchored regex."""
    parts = []
    for ch in pattern:
        if ch == "*":
            parts.append(".*")
        elif ch == "?":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$")


def wildcard_literals(pattern: str) -> tuple[str, str]:
    """The literal text every match of a ``*``/``?`` pattern carries:
    the run before the first wildcard (a match starts with it) and the
    longest run anywhere (a match contains it). They only narrow where
    to look — :func:`wildcard_regex` alone decides what matches."""
    runs = re.split(r"[*?]", pattern)
    return runs[0], max(runs, key=len)


class PlanNode:
    """Base class: a logical description the engine compiles and runs.

    Tracing, cancellation and degradation all live at the engine's
    iterator boundary — when the execution context carries a
    :class:`~repro.trace.TraceCollector`, the compiler wraps every
    operator in a span; without one, execution has no tracing overhead
    at all.
    """

    #: ordinal cost class; lower executes earlier inside intersections
    COST = 5

    def estimate(self, ctx: "ExecutionContext") -> int:
        """Estimated result cardinality (for the analyze output's
        estimate-vs-actual column). Every concrete node overrides this
        with its honest best guess; the base default is the whole
        dataspace."""
        return len(ctx.rvm.catalog)

    def explain(self, indent: int = 0) -> str:
        return "  " * indent + self.describe()

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class AllViews(PlanNode):
    """Every registered view (the complement's universe)."""

    COST = 6

    def estimate(self, ctx: "ExecutionContext") -> int:
        return len(ctx.rvm.catalog)  # exact: the universe itself

    def describe(self) -> str:
        return "AllViews"


@dataclass
class RootViews(PlanNode):
    """The data sources' root views (a leading child-axis step)."""

    COST = 1

    def estimate(self, ctx: "ExecutionContext") -> int:
        return len(ctx.root_ids())  # exact: one view per data source

    def describe(self) -> str:
        return "RootViews"


@dataclass
class ContentSearch(PlanNode):
    """Full-text lookup on the content index."""

    COST = 3
    text: str = ""
    is_phrase: bool = True
    wildcard: bool = False

    def estimate(self, ctx: "ExecutionContext") -> int:
        return ctx.content_estimate(self.text, is_phrase=self.is_phrase,
                                    wildcard=self.wildcard)

    def describe(self) -> str:
        form = "phrase" if self.is_phrase else ("wildcard" if self.wildcard
                                                else "term")
        return f"ContentSearch({form}: {self.text!r})"


@dataclass
class NameEquals(PlanNode):
    """Exact name lookup through the catalog's name index."""

    COST = 1
    name: str = ""

    def estimate(self, ctx: "ExecutionContext") -> int:
        return len(ctx.name_equals_ids(self.name))

    def describe(self) -> str:
        return f"NameEquals({self.name!r})"


@dataclass
class NamePattern(PlanNode):
    """Wildcard name match — over the distinct names of the catalog's
    name dictionary, never over the views."""

    COST = 4
    pattern: str = ""

    def estimate(self, ctx: "ExecutionContext") -> int:
        return ctx.name_pattern_estimate(self.pattern)

    def describe(self) -> str:
        return f"NamePattern({self.pattern!r})"


@dataclass
class ClassLookup(PlanNode):
    """Class-index lookup, subclass-aware (a view of class ``figure``
    matches ``[class="environment"]`` when figure specializes it)."""

    COST = 1
    class_name: str = ""

    def estimate(self, ctx: "ExecutionContext") -> int:
        return ctx.class_estimate(self.class_name)

    def describe(self) -> str:
        return f"ClassLookup({self.class_name!r})"


@dataclass
class TupleCompare(PlanNode):
    """Comparison on a tuple-component attribute via the tuple index."""

    COST = 2
    attribute: str = ""
    op: CompareOp = CompareOp.EQ
    value: object = None

    def estimate(self, ctx: "ExecutionContext") -> int:
        return ctx.tuple_estimate(self.attribute, self.op)

    def describe(self) -> str:
        return f"TupleCompare({self.attribute} {self.op.value} {self.value!r})"


@dataclass
class Intersect(PlanNode):
    parts: tuple[PlanNode, ...] = ()

    @property
    def COST(self) -> int:  # type: ignore[override]
        return min((p.COST for p in self.parts), default=5)

    def estimate(self, ctx: "ExecutionContext") -> int:
        return min((p.estimate(ctx) for p in self.parts),
                   default=len(ctx.rvm.catalog))

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + "Intersect"]
        lines += [p.explain(indent + 1) for p in self.parts]
        return "\n".join(lines)


@dataclass
class Union(PlanNode):
    parts: tuple[PlanNode, ...] = ()

    @property
    def COST(self) -> int:  # type: ignore[override]
        return max((p.COST for p in self.parts), default=5)

    def estimate(self, ctx: "ExecutionContext") -> int:
        return min(len(ctx.rvm.catalog),
                   sum(p.estimate(ctx) for p in self.parts))

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + "Union"]
        lines += [p.explain(indent + 1) for p in self.parts]
        return "\n".join(lines)


@dataclass
class Complement(PlanNode):
    """All views not matched by the inner plan (NOT)."""

    part: PlanNode = field(default_factory=AllViews)
    COST = 6

    def estimate(self, ctx: "ExecutionContext") -> int:
        return max(0, len(ctx.rvm.catalog) - self.part.estimate(ctx))

    def explain(self, indent: int = 0) -> str:
        return "  " * indent + "Complement\n" + self.part.explain(indent + 1)


@dataclass
class Limit(PlanNode):
    """Truncate the inner stream after ``count`` rows.

    The engine's :class:`~repro.query.engine.operators.LimitOp` stops
    pulling its child once satisfied, so a streaming scan below halts
    mid-corpus — LIMIT cost no longer scales with dataspace size. Rows
    kept are the first ``count`` in the child's deterministic pipeline
    order (sorted order when the child stream is ordered).
    """

    part: PlanNode = field(default_factory=AllViews)
    count: int = 0

    @property
    def COST(self) -> int:  # type: ignore[override]
        return self.part.COST

    def estimate(self, ctx: "ExecutionContext") -> int:
        return min(self.count, self.part.estimate(ctx))

    def describe(self) -> str:
        return f"Limit({self.count})"

    def explain(self, indent: int = 0) -> str:
        return ("  " * indent + f"Limit({self.count})\n"
                + self.part.explain(indent + 1))


@dataclass
class ExpandStep(PlanNode):
    """Path-step navigation over the group replica.

    ``axis=DESCENDANT`` relates transitively, ``axis=CHILD`` over one
    hop. The candidate set is index-computed from the step's name test
    and predicate — navigation never touches data sources ("queries
    referring to the group component ... exploit the replicas only").

    Expansion is the 2006 prototype's forward strategy: multi-source
    BFS from the input set, intersected with the candidates; the engine
    runs it *pipelined*, streaming discoveries as they are made.
    """

    input: PlanNode = field(default_factory=AllViews)
    axis: Axis = Axis.DESCENDANT
    candidates: PlanNode | None = None
    COST = 5

    def estimate(self, ctx: "ExecutionContext") -> int:
        """With a candidate filter the expansion returns a subset of the
        candidates; without one it is bounded by the input's fan-out
        (child axis) or the reachable universe (descendant axis)."""
        if self.candidates is not None:
            return self.candidates.estimate(ctx)
        return ctx.expand_estimate(self.input.estimate(ctx), self.axis)

    def describe(self) -> str:
        return f"ExpandStep(axis={self.axis.value})"

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.describe()}", self.input.explain(indent + 1)]
        if self.candidates is not None:
            lines.append(f"{pad}  candidates:")
            lines.append(self.candidates.explain(indent + 2))
        return "\n".join(lines)


@dataclass
class JoinPlan:
    """A binary join producing (left URI, right URI) pairs.

    Equality conditions run as hash joins (build on the smaller side);
    inequalities fall back to a nested loop. Key extraction follows the
    qualified references of the condition. The join inputs execute
    through the batched engine (their operator spans nest under the
    Join span).
    """

    left: PlanNode
    right: PlanNode
    left_ref: "object"
    right_ref: "object"
    op: CompareOp = CompareOp.EQ

    def execute_pairs(self, ctx: "ExecutionContext") -> list[tuple[str, str]]:
        trace = ctx.trace
        if trace is None:
            return self._run_pairs(ctx)
        with trace.paused():
            estimate = self.estimate(ctx)
        span = trace.begin("Join", self.describe(), estimate=estimate)
        try:
            pairs = self._run_pairs(ctx)
        except BaseException as error:
            trace.abort(span, error)
            raise
        trace.finish(span, rows=len(pairs))
        return pairs

    def estimate(self, ctx: "ExecutionContext") -> int:
        """Equality joins return at most min(|L|, |R|) pairs per matching
        key side; inequalities are bounded by the cross product."""
        left = self.left.estimate(ctx)
        right = self.right.estimate(ctx)
        if self.op is CompareOp.EQ:
            return min(left, right)
        return left * right

    def describe(self) -> str:
        return f"Join({self.op.value})"

    def _run_pairs(self, ctx: "ExecutionContext") -> list[tuple[str, str]]:
        from .ast import QualifiedRef
        from .engine import materialize_set

        left_uris = sorted(materialize_set(self.left, ctx))
        right_uris = sorted(materialize_set(self.right, ctx))

        def key_of(uri: str, ref: object) -> object:
            if isinstance(ref, QualifiedRef):
                return ctx.component_value(uri, ref)
            return ref  # a literal operand

        pairs: list[tuple[str, str]] = []
        if self.op is CompareOp.EQ:
            # hash join: build on the smaller input
            build_left = len(left_uris) <= len(right_uris)
            build, probe = ((left_uris, right_uris) if build_left
                            else (right_uris, left_uris))
            build_ref = self.left_ref if build_left else self.right_ref
            probe_ref = self.right_ref if build_left else self.left_ref
            table: dict[object, list[str]] = {}
            for uri in build:
                key = key_of(uri, build_ref)
                if key is not None:
                    table.setdefault(key, []).append(uri)
            for uri in probe:
                key = key_of(uri, probe_ref)
                if key is None:
                    continue
                for match in table.get(key, ()):
                    pairs.append((match, uri) if build_left else (uri, match))
        else:
            compare = _COMPARATORS[self.op]
            for left_uri in left_uris:
                left_key = key_of(left_uri, self.left_ref)
                if left_key is None:
                    continue
                for right_uri in right_uris:
                    right_key = key_of(right_uri, self.right_ref)
                    if right_key is None:
                        continue
                    try:
                        if compare(left_key, right_key):
                            pairs.append((left_uri, right_uri))
                    except TypeError:
                        continue
        return sorted(set(pairs))

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return "\n".join([
            f"{pad}Join({self.op.value})",
            self.left.explain(indent + 1),
            self.right.explain(indent + 1),
        ])


def compare_values(op: CompareOp, left: object, right: object) -> bool:
    """Apply a comparison, tolerating date/datetime mixes."""
    left, right = _coerce_pair(left, right)
    try:
        return _COMPARATORS[op](left, right)
    except TypeError:
        raise QueryExecutionError(
            f"cannot compare {left!r} {op.value} {right!r}"
        ) from None


def _coerce_pair(left: object, right: object) -> tuple[object, object]:
    if isinstance(left, datetime) and isinstance(right, date) and not isinstance(right, datetime):
        right = datetime(right.year, right.month, right.day)
    if isinstance(right, datetime) and isinstance(left, date) and not isinstance(left, datetime):
        left = datetime(left.year, left.month, left.day)
    return left, right


_COMPARATORS = {
    CompareOp.EQ: lambda a, b: a == b,
    CompareOp.NE: lambda a, b: a != b,
    CompareOp.LT: lambda a, b: a < b,
    CompareOp.LE: lambda a, b: a <= b,
    CompareOp.GT: lambda a, b: a > b,
    CompareOp.GE: lambda a, b: a >= b,
}
