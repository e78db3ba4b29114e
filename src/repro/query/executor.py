"""The iQL query processor.

:class:`QueryProcessor` parses a query, builds and optimizes a physical
plan over the RVM's indexes and replicas, executes it and returns a
:class:`QueryResult`. The execution strategy mirrors the prototype's:
"after fetching the data via index accesses, our query processor obtains
indirectly related resource views by forward expansion".
"""

from __future__ import annotations

import time
from array import array
from contextlib import nullcontext
from itertools import islice
from dataclasses import dataclass, field
from datetime import datetime
from typing import Callable, Iterator

from .. import obs
from ..core.errors import (
    ComponentError,
    DataSourceError,
    QueryExecutionError,
    StreamingUnsupportedError,
)
from ..core.resource_view import ResourceView
from ..fulltext.query import Phrase, Term, Wildcard
from ..rvm.keyset import KeySet
from ..rvm.manager import ResourceViewManager
from ..rvm.uridict import global_uri_dictionary
from .ast import (
    Axis,
    CompareOp,
    Comparison,
    FunctionCall,
    IntersectExpr,
    JoinExpr,
    KeywordAtom,
    Literal,
    PathExpr,
    PredAnd,
    Predicate,
    PredicateExpr,
    PredNot,
    PredOr,
    QualifiedRef,
    QueryExpr,
    UnionExpr,
)
from .engine import (
    Batch,
    DEFAULT_ENGINE,
    EngineConfig,
    iter_batches,
)
from .functions import FunctionTable
from .optimizer import optimize
from .parser import parse_iql
from .plan import (
    AllViews,
    ClassLookup,
    Complement,
    ContentSearch,
    ExpandStep,
    Intersect,
    JoinPlan,
    Limit,
    NameEquals,
    NamePattern,
    PlanNode,
    RootViews,
    TupleCompare,
    Union,
    wildcard_literals,
    wildcard_regex,
)

#: Attribute spellings the paper uses mapped onto the plugin schemas.
ATTRIBUTE_ALIASES = {
    "lastmodified": "modified",
    "creationtime": "created",
    "creation": "created",
}


def canonical_attribute(name: str) -> str:
    return ATTRIBUTE_ALIASES.get(name.lower(), name)


def _authority_of(uri: str) -> str:
    """The source authority of a view URI ("imap://inbox/3" → "imap")."""
    return uri.split("://", 1)[0] if "://" in uri else uri


@dataclass(frozen=True)
class SourceIncident:
    """One degraded data-source interaction during an execution."""

    authority: str
    operation: str
    error: str


@dataclass
class DegradationReport:
    """What one execution had to do without: the "what this answer is
    missing" attachment on every :class:`QueryResult` (empty in the
    happy case), rendered by the CLI, ``explain_analyze`` and the
    service metrics."""

    incidents: list[SourceIncident] = field(default_factory=list)
    #: views whose components could not be reached (skipped, not stale)
    views_unavailable: int = 0

    @property
    def is_degraded(self) -> bool:
        return bool(self.incidents) or self.views_unavailable > 0

    @property
    def sources_skipped(self) -> list[str]:
        """Authorities that degraded at least once, sorted."""
        return sorted({i.authority for i in self.incidents})

    def record(self, authority: str, operation: str,
               error: BaseException | str, *,
               views_unavailable: int = 0) -> None:
        self.incidents.append(SourceIncident(
            authority=authority, operation=operation, error=str(error),
        ))
        self.views_unavailable += views_unavailable

    def summary(self) -> str:
        """One line for CLI/log output."""
        if not self.is_degraded:
            return "complete (no sources skipped)"
        skipped = ",".join(self.sources_skipped) or "-"
        return (f"degraded: sources={skipped} "
                f"incidents={len(self.incidents)} "
                f"views_unavailable={self.views_unavailable}")

    def render(self) -> str:
        """Multi-line report: the summary plus each incident."""
        lines = [self.summary()]
        for incident in self.incidents:
            lines.append(f"  {incident.authority}.{incident.operation}: "
                         f"{incident.error}")
        return "\n".join(lines)


class ExecutionContext:
    """Index accessors shared by all plan nodes of one execution.

    ``cancel_token`` is any object with a ``check()`` method that raises
    when the execution should stop (deadline passed, client gone); the
    serving layer passes :class:`repro.service.CancellationToken`. Plan
    nodes call :meth:`checkpoint` from their inner loops so long-running
    queries abort cooperatively.

    ``trace`` is an optional :class:`~repro.trace.TraceCollector`: when
    present, every substrate call below records a ``ctx.*`` counter and
    the engine compiler wraps every operator in a span, turning the
    execution into an EXPLAIN ANALYZE. When absent the accounting costs
    one ``is None`` check per call site.

    ``engine`` tunes the batched engine (its vector width); see
    :class:`repro.query.engine.EngineConfig`.

    ``tenant`` is the admission-time tenant label (multi-tenant serving):
    purely observational — it changes no execution behaviour, but the
    post-execution accounting additionally records the ``query.*``
    series under ``{tenant="..."}``.
    """

    def __init__(self, rvm: ResourceViewManager, functions: FunctionTable,
                 *, cancel_token=None, trace=None,
                 engine: EngineConfig | None = None,
                 tenant: str | None = None):
        self.rvm = rvm
        self.functions = functions
        self.cancel_token = cancel_token
        self.trace = trace
        self.tenant = tenant
        self.engine = engine if engine is not None else DEFAULT_ENGINE
        self.group_replica = rvm.indexes.group_replica
        self.expanded_views = 0  # intermediate-result accounting (Q8!)
        #: what this execution had to do without: every survived source
        #: failure lands here, and the result carries it to the caller
        self.degradation = DegradationReport()
        self._all_ids: KeySet | None = None
        self._dict_view = None

    # -- the URI dictionary (DESIGN.md §4h) ----------------------------------

    @property
    def dict_view(self):
        """This execution's URI-dictionary snapshot, captured lazily at
        the first scan. One view per execution: every key flowing
        through this execution's operators is consistent with every
        other, and result batches carry the view so their URIs
        materialize correctly even after later remaps."""
        view = self._dict_view
        if view is None:
            view = self._dict_view = global_uri_dictionary().view()
        return view

    def count(self, name: str, amount: int = 1) -> None:
        """Record one substrate call into the trace, if tracing."""
        if self.trace is not None:
            self.trace.count(name, amount)

    def degrade(self, authority: str, operation: str,
                error: BaseException, *, views_unavailable: int = 0) -> None:
        """Survive one source failure: record it and count it, so the
        query completes over the remaining sources instead of dying."""
        self.degradation.record(authority, operation, error,
                                views_unavailable=views_unavailable)
        self.count("ctx.source_degraded")

    def checkpoint(self) -> None:
        """Raise if this execution was cancelled or missed its deadline."""
        if self.cancel_token is not None:
            self.cancel_token.check()

    def all_ids(self) -> KeySet:
        """The registered universe as a catalog-id keyset."""
        if self._all_ids is None:
            self.count("ctx.all_uris_materialized")
            self._all_ids = self.rvm.catalog.all_ids()
        return self._all_ids

    def root_ids(self) -> set[int]:
        """The data sources' root views, interned here: a plugin root
        need not be in the catalog, so this is where it gets its id."""
        self.count("ctx.root_uris")
        intern = global_uri_dictionary().intern
        roots: set[int] = set()
        for plugin in self.rvm.proxy.plugins():
            try:
                views = plugin.root_views()
            except DataSourceError as error:
                self.degrade(plugin.authority, "root_views", error)
                continue
            roots.update(intern(view.view_id.uri) for view in views)
        return roots

    def content_search_ids(self, text: str, *, is_phrase: bool,
                           wildcard: bool) -> KeySet:
        """Content match as a catalog-id :class:`KeySet`."""
        self.checkpoint()
        self.count("ctx.content_search")
        index = self.rvm.indexes.content_index
        if wildcard:
            return Wildcard(text).ids(index)
        if is_phrase:
            return Phrase.of(text, index).ids(index)
        return Term(text).ids(index)

    def content_estimate(self, text: str, *, is_phrase: bool,
                         wildcard: bool) -> int:
        """Cardinality estimate from document frequencies: a phrase (or
        conjunction) matches at most min(df) documents."""
        index = self.rvm.indexes.content_index
        if wildcard:
            return index.document_count  # pattern dfs are not kept
        terms = index.analyzer.terms(text)
        if not terms:
            return 0
        frequencies = []
        for term in terms:
            postings = index.postings(term)
            if postings is None:
                return 0
            frequencies.append(len(postings))
        return min(frequencies)

    @staticmethod
    def _class_names(class_name: str) -> list[str]:
        """``class_name`` and, for a built-in class, its specializations."""
        from ..core.classes import BUILTIN_REGISTRY
        if class_name not in BUILTIN_REGISTRY:
            return [class_name]
        return [cls.name for cls in BUILTIN_REGISTRY
                if BUILTIN_REGISTRY.is_subclass(cls.name, class_name)]

    def class_estimate(self, class_name: str) -> int:
        return sum(len(self.rvm.catalog.ids_by_class(name))
                   for name in self._class_names(class_name))

    def tuple_estimate(self, attribute: str, op: CompareOp) -> int:
        """Upper bound: views carrying the attribute at all (halved for
        range predicates, the textbook default selectivity)."""
        attribute = canonical_attribute(attribute)
        carriers = len(self.rvm.indexes.tuple_index.ids_with_attribute(
            attribute
        ))
        if op in (CompareOp.EQ, CompareOp.NE):
            return max(1, carriers // 10) if op is CompareOp.EQ else carriers
        return max(1, carriers // 2)

    def name_pattern_estimate(self, pattern: str) -> int:
        """Cardinality estimate for a wildcard name match: exact when the
        pattern is literal, otherwise the views filed under the names
        carrying the pattern's literal prefix (every match shares it) —
        a bisected range of the name dictionary, no name examined."""
        catalog = self.rvm.catalog
        if "*" not in pattern and "?" not in pattern:
            return len(catalog.ids_by_name(pattern))
        prefix, _ = wildcard_literals(pattern)
        return catalog.views_named(
            catalog.name_dictionary().with_prefix(prefix))

    def expand_estimate(self, input_estimate: int, axis: Axis) -> int:
        """Bound on the views reached by one expansion: the input times
        the replica's average fan-out over one hop, or the universe for
        the transitive descendant closure."""
        total = len(self.rvm.catalog)
        if axis is not Axis.CHILD:
            return total
        nodes = max(1, len(self.group_replica))
        fanout = self.group_replica.edge_count() / nodes
        return min(total, int(input_estimate * fanout) + 1)

    def name_equals_ids(self, name: str) -> KeySet:
        self.count("ctx.name_equals")
        return self.rvm.catalog.ids_by_name(name)

    def name_pattern_id_stream(self, pattern: str) -> Iterator[int]:
        """Catalog ids of the views whose name matches ``pattern``,
        streamed lazily, name bucket after name bucket.

        The pattern is matched against *distinct names*, a vector of
        ``engine.batch_size`` candidates at a time (counted into
        ``engine.rows_scanned``), and only against those the catalog's
        name dictionary nominates for the pattern's literal text; an
        abandoned stream examines no further name. The dictionary is an
        immutable snapshot, so a ``refresh()`` between two pulls cannot
        break the scan — a name it removed meanwhile just yields no ids.
        """
        catalog = self.rvm.catalog
        candidates = catalog.name_dictionary().candidates(
            *wildcard_literals(pattern))
        match = wildcard_regex(pattern).match
        size = self.engine.batch_size
        while names := [*islice(candidates, size)]:
            self.count("engine.rows_scanned", len(names))
            yield from catalog.ids_of_names(filter(match, names))

    def name_pattern_ids(self, pattern: str) -> KeySet:
        self.checkpoint()
        self.count("ctx.name_pattern")
        return KeySet.from_iterable(self.name_pattern_id_stream(pattern))

    # -- group navigation (the group replica) --------------------------------

    def group_labels(self):
        """The group replica's interval labels, which answer a
        descendant step without a walk. A build may happen here, so
        cancellation is observed first."""
        self.checkpoint()
        return self.group_replica.labels()

    def children_ids_of_many(self, frontier) -> list[int]:
        """The child ids of a whole frontier in one list (duplicates
        kept): counted per node, checkpointed once per
        ``engine.batch_size`` nodes so a huge frontier still observes
        cancellation promptly."""
        self.count("ctx.children_of", len(frontier))
        gather = self.group_replica.children_ids_of_many
        size = self.engine.batch_size
        if len(frontier) <= size:
            self.checkpoint()
            return gather(frontier)
        nodes = list(frontier)
        found: list[int] = []
        for start in range(0, len(nodes), size):
            self.checkpoint()
            found += gather(nodes[start:start + size])
        return found

    def children_of(self, uri: str) -> tuple[str, ...]:
        self.checkpoint()
        self.count("ctx.children_of")
        return self.group_replica.children(uri)

    def class_lookup_ids(self, class_name: str) -> KeySet:
        self.checkpoint()
        self.count("ctx.class_lookup")
        matched = KeySet()
        for name in self._class_names(class_name):
            matched = matched.or_(self.rvm.catalog.ids_by_class(name))
        return matched

    def tuple_compare_ids(self, attribute: str, op: CompareOp,
                          value: object) -> KeySet:
        """Tuple predicate as a catalog-id :class:`KeySet`."""
        self.checkpoint()
        self.count("ctx.tuple_compare")
        attribute = canonical_attribute(attribute)
        index = self.rvm.indexes.tuple_index
        if op is CompareOp.EQ:
            return index.equals_ids(attribute, value)
        if op is CompareOp.NE:
            return index.ids_with_attribute(attribute).andnot(
                index.equals_ids(attribute, value)
            )
        if op is CompareOp.GT:
            return index.greater_than_ids(attribute, value)
        if op is CompareOp.GE:
            return index.greater_than_ids(attribute, value, inclusive=True)
        if op is CompareOp.LT:
            return index.less_than_ids(attribute, value)
        if op is CompareOp.LE:
            return index.less_than_ids(attribute, value, inclusive=True)
        raise QueryExecutionError(f"unsupported operator {op}")

    def component_value(self, uri: str, ref: QualifiedRef) -> object:
        """Resolve ``A.name`` / ``A.tuple.attr`` / ``A.class`` /
        ``A.content`` for a join key."""
        self.count(f"ctx.component_value.{ref.kind}")
        if ref.kind == "name":
            return self.rvm.indexes.name_of(uri) or None
        if ref.kind == "class":
            record = self.rvm.catalog.get(uri)
            return record.class_name if record else None
        if ref.kind == "tuple":
            component = self.rvm.indexes.tuple_index.tuple_of(uri)
            if component is None or component.is_empty:
                return None
            return component.get(canonical_attribute(ref.attribute or ""))
        if ref.kind == "content":
            try:
                view = self.rvm.view(uri)
                if view is None:
                    return None
                content = view.content
                return (content.text() if content.is_finite
                        else content.take(4096))
            except (DataSourceError, ComponentError) as error:
                self.degrade(_authority_of(uri), "component_value", error,
                             views_unavailable=1)
                return None
        raise QueryExecutionError(f"unknown component reference {ref.kind!r}")


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hit:
    """One unary query result."""

    uri: str
    name: str
    class_name: str

    def view(self, rvm: ResourceViewManager) -> ResourceView | None:
        return rvm.view(self.uri)


@dataclass(frozen=True)
class JoinHit:
    """One join result pair."""

    left: Hit
    right: Hit


@dataclass
class QueryResult:
    """The result of one iQL execution.

    A unary answer *is* its key column: counting it never touches the
    URI dictionary, :meth:`uris` decodes the column once, and
    :attr:`hits` looks rows up in the catalog only when read.
    """

    query: str
    pairs: list[JoinHit] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    expanded_views: int = 0
    plan_text: str = ""
    #: a unary answer: the distinct sort keys, ascending, as one ordered
    #: batch with the execution's dictionary view pinned — so it decodes
    #: to the same URIs however many remaps it outlives (the serving
    #: layer caches results). ``None`` for a join.
    column: Batch | None = None
    #: names one matched URI as a :class:`Hit` (the processor's catalog
    #: lookup); called when :attr:`hits` is first read, not before
    describe: Callable[[str], Hit] | None = field(default=None, repr=False)
    #: the TraceCollector of a traced execution (None otherwise)
    trace: object = None
    #: what this execution had to do without (empty when healthy)
    degradation: DegradationReport = field(
        default_factory=DegradationReport
    )
    _hits: list[Hit] | None = field(default=None, init=False, repr=False)

    @property
    def is_degraded(self) -> bool:
        """True when the answer is partial: at least one source was
        skipped or a view's components were unreachable."""
        return self.degradation.is_degraded

    @property
    def is_join(self) -> bool:
        return self.plan_text.startswith("Join")

    def __len__(self) -> int:
        """Result cardinality: join hits for a join, rows of the key
        column otherwise (nothing is decoded to count).

        A join result counts its pairs even when that count is zero —
        it never falls back to the (always empty) unary answer.
        """
        if self.is_join:
            return len(self.pairs)
        return len(self.column) if self.column is not None else 0

    def uris(self) -> list[str]:
        """The distinct matched URIs, sorted.

        For a join these are the deduplicated pair members (a URI
        appearing on both sides, or in several pairs, is listed once).
        A unary answer decodes its column on the first call and keeps
        the strings (the batch caches them; decoding is idempotent, so
        threads sharing a cached result may race here harmlessly).
        """
        if self.is_join:
            members = {hit.uri for pair in self.pairs
                       for hit in (pair.left, pair.right)}
            return sorted(members)
        return list(self.column.uris) if self.column is not None else []

    @property
    def hits(self) -> list[Hit]:
        """One :class:`Hit` per row of a unary answer, in URI order:
        built on first read (one catalog lookup per row), then kept."""
        hits = self._hits
        if hits is None:
            hits = self._hits = ([] if self.column is None else
                                 [*map(self.describe, self.column.uris)])
        return hits


class StreamingResult:
    """A lazily-evaluated query result: batches arrive as the engine
    pulls them, so the first rows are available before the scan
    finishes and an abandoned iteration stops the execution early.

    ``degradation`` and ``expanded_views`` reflect work done *so far*;
    they are complete once the stream is exhausted.
    """

    def __init__(self, query: str, plan_text: str, ctx: "ExecutionContext",
                 batches):
        self.query = query
        self.plan_text = plan_text
        self._ctx = ctx
        self._batches = batches

    @property
    def degradation(self) -> DegradationReport:
        return self._ctx.degradation

    @property
    def expanded_views(self) -> int:
        return self._ctx.expanded_views

    def batches(self):
        """The underlying batch iterator (consumes the stream)."""
        return self._batches

    def __iter__(self):
        for batch in self._batches:
            yield from batch.uris

    def close(self) -> None:
        """Abandon the stream; the engine closes its operators."""
        self._batches.close()

    def __enter__(self) -> "StreamingResult":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class PreparedQuery:
    """A parsed query, reusable across executions.

    The serving layer's plan cache stores these: parsing and planning
    happen once per distinct query text. The ``plan`` slot memoizes the
    optimized physical plan, which depends on the query alone.
    """

    text: str
    ast: QueryExpr
    plan: PlanNode | None = None

    @property
    def is_join(self) -> bool:
        return isinstance(self.ast, JoinExpr)


# ---------------------------------------------------------------------------
# The processor
# ---------------------------------------------------------------------------

class QueryProcessor:
    """Parses, plans, optimizes and executes iQL queries over one RVM.

    Planning is the 2006 prototype's: the rule-based optimizer pass and
    forward expansion of path steps.
    """

    def __init__(self, rvm: ResourceViewManager, *,
                 reference_datetime: datetime | None = None):
        self.rvm = rvm
        self.functions = FunctionTable(reference_datetime)

    # -- public API -----------------------------------------------------------

    def execute(self, query_text: str, *, cancel_token=None,
                limit: int | None = None,
                engine: EngineConfig | None = None,
                tenant: str | None = None) -> QueryResult:
        return self.execute_prepared(self.prepare(query_text),
                                     cancel_token=cancel_token,
                                     limit=limit, engine=engine,
                                     tenant=tenant)

    def prepare(self, query_text: str) -> PreparedQuery:
        """Parse once; the result can be executed many times."""
        return PreparedQuery(text=query_text, ast=parse_iql(query_text))

    def execute_prepared(self, prepared: PreparedQuery, *,
                         cancel_token=None, trace=None,
                         limit: int | None = None,
                         engine: EngineConfig | None = None,
                         tenant: str | None = None) -> QueryResult:
        """Execute a prepared query.

        ``trace`` is an optional :class:`~repro.trace.TraceCollector`;
        when given, engine operators record spans, substrate calls
        record counters, and lazy component materializations are
        observed for the duration (the collector is installed as this
        thread's materialization sink).

        ``limit`` truncates the result after that many rows *with early
        termination*: the engine stops pulling from its scans, so the
        cost is bounded by the limit, not the corpus.

        ``tenant`` labels this execution's ``query.*`` telemetry (see
        :class:`ExecutionContext`); it does not affect the result.
        """
        ctx = ExecutionContext(self.rvm, self.functions,
                               cancel_token=cancel_token, trace=trace,
                               engine=engine, tenant=tenant)
        scope = trace.activate() if trace is not None else nullcontext()
        started = time.perf_counter()
        with scope:
            if isinstance(prepared.ast, JoinExpr):
                plan = self._prepared_join(prepared, ctx, trace=trace)
                pairs = plan.execute_pairs(ctx)
                if limit is not None:
                    pairs = pairs[:limit]
                elapsed = time.perf_counter() - started
                self._record_execution(
                    prepared.text, elapsed, rows=len(pairs),
                    trace=trace, plan_text=plan.explain(),
                    degradation=ctx.degradation, tenant=tenant,
                )
                return QueryResult(
                    query=prepared.text,
                    pairs=[JoinHit(self._hit(l), self._hit(r))
                           for l, r in pairs],
                    elapsed_seconds=elapsed,
                    expanded_views=ctx.expanded_views,
                    plan_text=plan.explain(),
                    trace=trace,
                    degradation=ctx.degradation,
                )
            plan = self._prepared_plan(prepared, ctx, trace=trace,
                                       limit=limit)
            keys = array("q")
            ordered = True
            for batch in iter_batches(plan, ctx):
                keys.extend(batch.keys)
                ordered = ordered and batch.ordered
        if not ordered:
            # an ordered stream is strictly increasing across batches;
            # an unordered one is distinct but in pipeline order
            keys = array("q", sorted(set(keys)))
        elapsed = time.perf_counter() - started
        self._record_execution(prepared.text, elapsed, rows=len(keys),
                               trace=trace, plan_text=plan.explain(),
                               degradation=ctx.degradation, tenant=tenant)
        return QueryResult(
            query=prepared.text, elapsed_seconds=elapsed,
            expanded_views=ctx.expanded_views, plan_text=plan.explain(),
            column=Batch(keys, ordered=True, view=ctx.dict_view),
            describe=self._hit,
            trace=trace,
            degradation=ctx.degradation,
        )

    def execute_iter(self, query, *, cancel_token=None, trace=None,
                     limit: int | None = None,
                     engine: EngineConfig | None = None,
                     tenant: str | None = None) -> StreamingResult:
        """Execute a (non-join) query as a batch stream.

        Returns a :class:`StreamingResult` whose batches materialize on
        demand — iterate it (or call ``batches()``) to pull; abandoning
        the iteration closes the operator tree early. Joins have no
        streaming plan shape; use :meth:`execute_prepared`.
        """
        prepared = (query if isinstance(query, PreparedQuery)
                    else self.prepare(query))
        if isinstance(prepared.ast, JoinExpr):
            raise StreamingUnsupportedError(
                "joins do not stream; use execute()/execute_prepared()"
            )
        ctx = ExecutionContext(self.rvm, self.functions,
                               cancel_token=cancel_token, trace=trace,
                               engine=engine, tenant=tenant)
        plan = self._prepared_plan(prepared, ctx, trace=trace, limit=limit)

        def stream():
            scope = trace.activate() if trace is not None else nullcontext()
            started = time.perf_counter()
            rows = 0
            try:
                with scope:
                    for batch in iter_batches(plan, ctx):
                        rows += len(batch)
                        yield batch
            finally:
                self._record_execution(
                    prepared.text, time.perf_counter() - started,
                    rows=rows, trace=trace, plan_text=plan.explain(),
                    degradation=ctx.degradation, streamed=True,
                    tenant=tenant,
                )

        return StreamingResult(prepared.text, plan.explain(), ctx, stream())

    def _record_execution(self, query_text: str, elapsed: float, *,
                          rows: int, trace, plan_text: str,
                          degradation: DegradationReport,
                          streamed: bool = False,
                          tenant: str | None = None) -> None:
        """Feed one finished execution into the global telemetry spine:
        ``query.*`` counters/histograms, a traced run's per-operator
        aggregates (the same ``query.op.*`` names the service folds
        traced requests into), and the slow-query log.

        A streamed execution's wall time includes consumer think-time
        between pulls, so it lands in ``query.stream_seconds`` instead
        of ``query.latency_seconds`` and never triggers slow-query
        capture. Recapture re-executions record nothing at all.

        With a ``tenant``, the headline series record *twice*: the
        unlabeled fleet-wide series (existing dashboards keep working)
        plus a ``{tenant="..."}`` -labeled series per metric.
        """
        if not obs.enabled() or obs.in_recapture():
            return
        by_tenant = {"tenant": tenant} if tenant else None
        obs.increment("query.executions")
        obs.increment("query.rows", rows)
        if by_tenant:
            obs.increment("query.executions", labels=by_tenant)
            obs.increment("query.rows", rows, labels=by_tenant)
        if streamed:
            obs.increment("query.streamed")
            obs.observe("query.stream_seconds", elapsed)
            if by_tenant:
                obs.observe("query.stream_seconds", elapsed,
                            labels=by_tenant)
        else:
            obs.observe("query.latency_seconds", elapsed)
            if by_tenant:
                obs.observe("query.latency_seconds", elapsed,
                            labels=by_tenant)
        if degradation.is_degraded:
            obs.increment("query.degraded")
            obs.emit_event(
                obs.WARNING, "query", "query.degraded",
                "query answered partially",
                query=query_text,
                sources_skipped=list(degradation.sources_skipped),
            )
        if trace is not None:
            for operator, agg in trace.aggregates().items():
                obs.increment(f"query.op.{operator}.calls",
                              int(agg["calls"]))
                obs.increment(f"query.op.{operator}.rows",
                              int(agg["rows"]))
                obs.observe(f"query.op.{operator}.seconds", agg["seconds"])
            for name, value in trace.counters.items():
                obs.increment(f"query.{name}", value)
        if not streamed:
            obs.record_slow_query(query_text, elapsed, trace=trace,
                                  plan_text=plan_text, processor=self,
                                  degraded=degradation.is_degraded)

    def _prepared_plan(self, prepared: PreparedQuery, ctx: ExecutionContext,
                       *, trace=None, limit: int | None = None) -> PlanNode:
        """The (memoized) optimized plan, wrapped with ``Limit`` when
        requested. The limit wrap happens after memoization — the cached
        plan stays limit-free, and the extra rule pass (limit pushdown)
        is idempotent over the already-optimized tree. Planning reads no
        ``ctx``; the parameter stays for the perf ledger's probes."""
        plan = prepared.plan
        if plan is None:
            plan = prepared.plan = optimize(self._build(prepared.ast),
                                            trace=trace)
        if limit is not None:
            plan = optimize(Limit(part=plan, count=limit), trace=trace)
        return plan

    def _prepared_join(self, prepared: PreparedQuery,
                       ctx: ExecutionContext, trace=None) -> JoinPlan:
        if prepared.plan is None:
            prepared.plan = self._build_join(prepared.ast, trace=trace)
        return prepared.plan

    def explain(self, query_text: str) -> str:
        """The optimized physical plan, without executing it."""
        ast = parse_iql(query_text)
        if isinstance(ast, JoinExpr):
            return self._build_join(ast).explain()
        return optimize(self._build(ast)).explain()

    def explain_analyze(self, query_text: str, *, cancel_token=None):
        """Execute the query under a fresh trace and return an
        :class:`~repro.trace.ExplainAnalyzeReport` — the annotated plan
        tree (estimate vs. actual rows, wall time per operator), the
        optimizer's rewrite log and the substrate counters, plus the
        ordinary :class:`QueryResult`."""
        from ..trace import ExplainAnalyzeReport, TraceCollector
        trace = TraceCollector()
        # a fresh PreparedQuery (not the cache's): the optimizer runs
        # under this trace, so applied rewrites land in the report
        prepared = self.prepare(query_text)
        result = self.execute_prepared(prepared, cancel_token=cancel_token,
                                       trace=trace)
        return ExplainAnalyzeReport(result=result, trace=trace)

    def _hit(self, uri: str) -> Hit:
        record = self.rvm.catalog.get(uri)
        if record is None:
            return Hit(uri=uri, name="", class_name="")
        return Hit(uri=uri, name=record.name, class_name=record.class_name)

    # -- AST -> plan ---------------------------------------------------------------

    def _build(self, ast: QueryExpr) -> PlanNode:
        if isinstance(ast, PredicateExpr):
            return self._build_predicate(ast.predicate)
        if isinstance(ast, PathExpr):
            return self._build_path(ast)
        if isinstance(ast, UnionExpr):
            return Union(tuple(self._build(p) for p in ast.parts))
        if isinstance(ast, IntersectExpr):
            return Intersect(tuple(self._build(p) for p in ast.parts))
        if isinstance(ast, JoinExpr):
            raise QueryExecutionError(
                "joins are only supported at the top level"
            )
        raise QueryExecutionError(f"cannot plan {type(ast).__name__}")

    def _build_path(self, path: PathExpr) -> PlanNode:
        first, *rest = path.steps
        plan = self._step_candidates(first, at_root=True)
        for step in rest:
            plan = ExpandStep(
                input=plan, axis=step.axis,
                candidates=self._step_filter(step),
            )
        return plan

    def _step_candidates(self, step, *, at_root: bool) -> PlanNode:
        """The index-computed candidate set of one step."""
        filter_plan = self._step_filter(step)
        if step.axis is Axis.CHILD and at_root:
            roots = RootViews()
            if filter_plan is None:
                return roots
            return Intersect((roots, filter_plan))
        # descendant from the dataspace root = any registered view
        return filter_plan if filter_plan is not None else AllViews()

    def _step_filter(self, step) -> PlanNode | None:
        parts: list[PlanNode] = []
        if step.name_test is not None:
            if step.has_wildcard:
                parts.append(NamePattern(pattern=step.name_test))
            else:
                parts.append(NameEquals(name=step.name_test))
        if step.predicate is not None:
            parts.append(self._build_predicate(step.predicate))
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return Intersect(tuple(parts))

    def _build_predicate(self, predicate: Predicate) -> PlanNode:
        if isinstance(predicate, KeywordAtom):
            return ContentSearch(text=predicate.text,
                                 is_phrase=predicate.is_phrase,
                                 wildcard=predicate.wildcard)
        if isinstance(predicate, Comparison):
            return self._build_comparison(predicate)
        if isinstance(predicate, PredAnd):
            return Intersect(tuple(self._build_predicate(p)
                                   for p in predicate.parts))
        if isinstance(predicate, PredOr):
            return Union(tuple(self._build_predicate(p)
                               for p in predicate.parts))
        if isinstance(predicate, PredNot):
            return Complement(self._build_predicate(predicate.part))
        raise QueryExecutionError(
            f"cannot plan predicate {type(predicate).__name__}"
        )

    def _build_comparison(self, comparison: Comparison) -> PlanNode:
        value = self._operand_value(comparison.operand)
        attribute = comparison.attribute.lower()
        if attribute == "class":
            if comparison.op is CompareOp.EQ:
                return ClassLookup(class_name=str(value))
            if comparison.op is CompareOp.NE:
                return Complement(ClassLookup(class_name=str(value)))
            raise QueryExecutionError("class supports = and != only")
        if attribute == "name":
            text = str(value)
            if comparison.op is CompareOp.EQ:
                if "*" in text or "?" in text:
                    return NamePattern(pattern=text)
                return NameEquals(name=text)
            if comparison.op is CompareOp.NE:
                return Complement(NameEquals(name=text))
            raise QueryExecutionError("name supports = and != only")
        return TupleCompare(attribute=comparison.attribute,
                            op=comparison.op, value=value)

    def _operand_value(self, operand) -> object:
        if isinstance(operand, Literal):
            return operand.value
        if isinstance(operand, FunctionCall):
            return self.functions.call(operand.name)
        raise QueryExecutionError(
            "qualified references are only valid in join conditions"
        )

    def _build_join(self, join: JoinExpr, trace=None) -> JoinPlan:
        left_plan = optimize(self._build(join.left), trace=trace)
        right_plan = optimize(self._build(join.right), trace=trace)
        condition = join.condition
        # Normalize so left_ref refers to the left variable.
        left_ref: object = condition.left
        right_ref: object
        if isinstance(condition.right, QualifiedRef):
            right_ref = condition.right
        elif isinstance(condition.right, Literal):
            right_ref = condition.right.value
        elif isinstance(condition.right, FunctionCall):
            right_ref = self.functions.call(condition.right.name)
        else:
            raise QueryExecutionError("malformed join condition")
        if condition.left.variable == join.right_var:
            left_ref, right_ref = right_ref, left_ref
        return JoinPlan(left=left_plan, right=right_plan,
                        left_ref=left_ref, right_ref=right_ref,
                        op=condition.op)
