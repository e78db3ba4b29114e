"""Per-layer metrics (layer = module name), collected in the traced
pass only.

Numbers come from two places: timing calls into each layer's public
functions from here, each under a :class:`harness.Recorder` span, and
the spans and counters the program already exposes
(``Dataspace.explain_analyze``, ``Dataspace.telemetry``, ``SyncReport``,
``Dataspace.index_sizes``). Nothing in ``src/`` is instrumented for
this.

Entry points below the facade are resolved when first called. If a
later change renames one, the metrics that needed it are reported as
null with the reason in ``notes`` and everything else still runs.
"""

from __future__ import annotations

import gc
import resource
import time

import harness

#: the operators ``explain_analyze`` reports on the Q1-Q8 mix
OPERATORS = ("ContentSearch", "TupleCompare", "Intersect", "ExpandStep",
             "NamePattern", "NameEquals", "ClassLookup", "Union", "Join")
#: ``ctx.*`` substrate counters (exact-repeat: one client, fixed corpus)
CTX_COUNTERS = ("children_of", "content_search", "name_equals",
                "name_pattern", "class_lookup", "tuple_compare",
                "component_value")
_RENAMED = (AttributeError, ImportError, TypeError, LookupError)


def unmeasured(config) -> dict[str, float | None]:
    """Every declared per-layer metric as null ("not measured on this
    workload", says the runner) until the workload measures it."""
    return {metric["name"]: None for metric in config.declared["per_layer"]}


def program_counters() -> dict[str, float]:
    """What the program itself has counted so far: the registry behind
    ``Dataspace.telemetry()``, which also holds what the shard workers
    federate to their supervisor, with the shard label summed away. A
    histogram gives ``<name>.count`` and ``<name>.total``."""
    from repro import obs
    out: dict[str, float] = {}
    for kind, name, labels, metric in obs.global_metrics().series():
        if kind == "gauge" or any(key != "shard" for key, _ in labels):
            continue
        if kind == "histogram":
            snapshot = metric.snapshot()
            out[f"{name}.count"] = out.get(f"{name}.count", 0) + snapshot.count
            out[f"{name}.total"] = out.get(f"{name}.total", 0) + snapshot.total
        else:
            out[name] = out.get(name, 0) + metric.value
    return out


#: layer metrics the program counts itself: a workload that has no probe
#: of its own for one reports the counter's change over the run
_COUNTED = {
    "durability.wal.appends": "wal.appends",
    "durability.wal.fsyncs": "wal.fsyncs",
    "durability.checkpoint.seconds": "wal.checkpoint_seconds.total",
    "durability.recovery.open_s": "wal.recovery_seconds.total",
    "durability.recovery.records_replayed": "wal.records_replayed",
    "service.admission.rejected": "service.admission.rejected",
    "supervise.replies.fenced": "supervise.replies.fenced",
    "supervise.queries.redispatched": "supervise.queries.redispatched",
    "supervise.shard.restarts": "supervise.shard.restarts",
}
#: the counter that shows whether a layer was entered at all; where it
#: did not move, the layer took no time and did no work
_ENTERED = {
    "durability.wal.": "wal.appends",
    "durability.checkpoint.": "wal.checkpoints",
    "durability.recovery.": "wal.recoveries",
    "service.": "service.queries.submitted",
    "supervise.": "supervise.queries.served",
    "rvm.refresh.": "sync.changes_processed",
}


def fill_idle(metrics: dict, before: dict, after: dict, views: int,
              notes: dict) -> None:
    """Fill what the workload did not measure itself from two
    :func:`program_counters` readings. A layer whose entry counter stood
    still reads 0 — observed, not assumed; one that was entered but has
    no probe on this workload stays null, with the counter as the
    reason."""
    def moved(counter):
        return after.get(counter, 0) - before.get(counter, 0)

    notes["(idle layers)"] = "program counters that stood still: " + (
        ", ".join(sorted(counter for counter in set(_ENTERED.values())
                         if moved(counter) == 0)) or "none")
    for name, value in metrics.items():
        if value is not None:
            continue
        if name in _COUNTED:
            metrics[name] = moved(_COUNTED[name])
        elif name == "durability.wal.bytes_per_view":
            metrics[name] = moved("wal.bytes") / max(1, views)
        else:
            for prefix, counter in _ENTERED.items():
                if not name.startswith(prefix):
                    continue
                if moved(counter) == 0:
                    metrics[name] = 0.0
                else:
                    notes[name] = (f"{counter} moved by {moved(counter)} "
                                   f"but this workload has no probe for it")
                break


def process_layers(clock: harness.ReferenceClock) -> dict[str, float]:
    return {
        "process.reference_spin_ms": clock.median_spin_ms(),
        "process.peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "process.gc_gen2_collections": gc.get_stats()[2]["collections"],
    }


def sync_layers(report, generate_seconds: float,
                factor: float) -> dict[str, float]:
    """Figure 5's split of one ``sync()``, from its ``SyncReport``;
    ``factor`` is the reference clock's for that ``sync()``."""
    sources = report.sources.values()
    return {
        "dataset.generate_s": generate_seconds,
        "rvm.sync.access_s":
            sum(s.access_seconds for s in sources) * factor,
        "rvm.sync.catalog_s":
            sum(s.catalog_seconds for s in sources) * factor,
        "rvm.sync.indexing_s":
            sum(s.indexing_seconds for s in sources) * factor,
        "rvm.sync.views": report.views_total,
        "rvm.sync.errors": sum(len(s.errors) for s in sources),
    }


def index_layers(sizes: dict, views: int) -> dict[str, float]:
    """Table 3, from ``Dataspace.index_sizes()``."""
    out = {f"rvm.indexes.{part}_bytes": sizes[part]
           for part in ("name", "tuple", "content", "group", "catalog")}
    out["rvm.indexes.bytes_per_view"] = sizes["total"] / max(1, views)
    return out


def fold_spans(roots, self_ms: dict, rows: dict, factor: float,
               adopt=None) -> tuple[int, int, float]:
    """Add each program span's self time (its duration minus its
    children's, times the clock's ``factor``) and rows to the
    per-operator sums; ``adopt(operator, raw self seconds)`` also gets
    each one, for the trace file. Returns leaf rows, root rows and the
    roots' total seconds."""
    leaf_rows = root_rows = 0
    root_seconds = 0.0
    for root in roots:
        root_rows += root.actual_rows or 0
        root_seconds += (root.elapsed_seconds or 0.0) * factor
        for span in root.walk():
            own = max(0.0, (span.elapsed_seconds or 0.0) - sum(
                child.elapsed_seconds or 0.0 for child in span.children))
            if adopt is not None:
                adopt(span.operator, own)
            self_ms[span.operator] = (self_ms.get(span.operator, 0.0)
                                      + own * factor * 1000.0)
            rows[span.operator] = (rows.get(span.operator, 0)
                                   + (span.actual_rows or 0))
            if not span.children:
                leaf_rows += span.actual_rows or 0
    return leaf_rows, root_rows, root_seconds


def operator_metrics(self_ms: dict, rows: dict) -> dict[str, float]:
    out = {}
    for operator in OPERATORS:
        out[f"query.op.{operator}.self_ms"] = self_ms.get(operator, 0.0)
        out[f"query.op.{operator}.rows"] = rows.get(operator, 0)
    return out


def counter_metrics(counters: dict) -> dict[str, float]:
    """The substrate counters of traced executions, by declared name
    (``ctx.component_value.*`` summed)."""
    out = {"query.engine.rows_scanned":
           counters.get("engine.rows_scanned", 0)}
    for name in CTX_COUNTERS:
        out[f"query.ctx.{name}"] = sum(
            value for key, value in counters.items()
            if key == f"ctx.{name}" or key.startswith(f"ctx.{name}."))
    return out


def _plan_nodes(node):
    yield node
    for part in getattr(node, "parts", ()):
        yield from _plan_nodes(part)
    for attribute in ("part", "input", "candidates"):
        child = getattr(node, attribute, None)
        if child is not None:
            yield from _plan_nodes(child)


def _timed(recorder, clock, name, call, request=None):
    """``call()`` under a recorder span; its duration at reference
    speed and its value."""
    with recorder.span(name, request=request):
        begun = time.perf_counter()
        value = call()
        return clock.scale(time.perf_counter() - begun), value


def factor_range(clock: harness.ReferenceClock) -> str:
    """The factors a traced pass applied, for the audit line: per-layer
    times are sums of scaled pieces, so they carry no single raw value."""
    factors = sorted(clock.REFERENCE_SECONDS / spin for spin in clock.spins)
    return (f"x{factors[0]:.3f} .. x{harness.median(factors):.3f} .. "
            f"x{factors[-1]:.3f} (min, median, max)")


class _EnginePath:
    """The calls below ``Dataspace.query`` that split a query into
    compile, drain and materialize."""

    def __init__(self, dataspace):
        from repro.query.engine import compile_plan, iter_batches
        from repro.query.executor import ExecutionContext
        self.compile_plan = compile_plan
        self.iter_batches = iter_batches
        self.context = ExecutionContext
        self.dataspace = dataspace

    def split(self, iql: str, recorder, clock,
              request) -> tuple[float, float]:
        """(compile seconds, drain seconds) of one execution. Draining
        pulls every batch without touching ``Batch.uris``; a join has no
        batch stream, so its drain is ``execute_pairs``."""
        processor = self.dataspace.processor
        ctx = self.context(self.dataspace.rvm, processor.functions)
        prepared = processor.prepare(iql)
        if prepared.is_join:
            plan = processor._prepared_join(prepared, ctx)  # noqa: SLF001
            inputs = (plan.left, plan.right)

            def drain():
                return len(plan.execute_pairs(ctx))
        else:
            plan = processor._prepared_plan(prepared, ctx)  # noqa: SLF001
            inputs = (plan,)

            def drain():
                return sum(len(batch)
                           for batch in self.iter_batches(plan, ctx))

        compile_s, _ = _timed(
            recorder, clock, "query.engine.compile",
            lambda: [self.compile_plan(node, ctx) for node in inputs],
            request)
        drain_s, _ = _timed(recorder, clock, "query.engine.drain", drain,
                            request)
        return compile_s, drain_s


def query_layers(dataspace, mix, recorder, clock, notes: dict, answers,
                 tally, samples: harness.MixSamples, *, seconds: float,
                 min_passes: int = 3) -> dict[str, float | None]:
    """The query path by stage, over Q1-Q8 passes on an in-process
    dataspace. Each pass sums its eight queries; the result is the
    median pass. The plain ``Dataspace.query`` of each pass is checked
    against ``answers`` and timed into ``samples``."""
    from repro.query import parse_iql
    from repro.rvm.uridict import global_uri_dictionary

    dictionary = global_uri_dictionary()
    try:
        engine = _EnginePath(dataspace)
    except _RENAMED as error:
        engine = None
        notes["query.engine"] = f"{type(error).__name__}: {error}"

    passes: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        request = len(passes)
        row: dict[str, float] = {}
        self_ms: dict[str, float] = {}
        rows: dict[str, int] = {}
        counters: dict[str, int] = {}
        leaf = root = 0
        root_s = result_s = traced_s = plain_s = 0.0

        def add(name, amount):
            row[name] = row.get(name, 0.0) + amount

        for qid, iql in mix:
            clock.spin()
            with recorder.span(f"mix.{qid}", request=request):
                parse_s, _ = _timed(recorder, clock, "query.parser.parse",
                                    lambda: parse_iql(iql), request)
                explain_s, _ = _timed(recorder, clock,
                                      "query.optimizer.plan",
                                      lambda: dataspace.explain(iql),
                                      request)
                add("query.parser.parse_us", parse_s * 1e6)
                add("query.optimizer.plan_us",
                    max(0.0, explain_s - parse_s) * 1e6)
                drain_s = None
                if engine is not None:
                    try:
                        compile_s, drain_s = engine.split(
                            iql, recorder, clock, request)
                    except _RENAMED as error:
                        engine = None
                        notes["query.engine"] = (
                            f"{type(error).__name__}: {error}")
                before = dictionary.stats()
                query_s, result = _timed(recorder, clock,
                                         "Dataspace.query",
                                         lambda: dataspace.query(iql),
                                         request)
                after = dictionary.stats()
                for key in ("handoffs", "lookups", "remaps"):
                    add(f"rvm.uridict.{key}", after[key] - before[key])
                plain_s += query_s
                if tally.check(result.uris() == answers[qid],
                               f"{qid}: wrong answer (traced pass)"):
                    # only the diagnostics read these, at reference speed
                    samples.add(qid, harness.Timed(query_s * 1e3,
                                                   query_s * 1e3))
                if drain_s is not None:
                    add("query.engine.compile_us", compile_s * 1e6)
                    add("query.engine.drain_ms", drain_s * 1e3)
                    add(f"query.engine.drain_ms.{qid}", drain_s * 1e3)
                    materialize = max(0.0, query_s - drain_s) * 1e3
                    add("query.executor.materialize_ms", materialize)
                    add(f"query.executor.materialize_ms.{qid}", materialize)
                with recorder.span("Dataspace.explain_analyze",
                                   request=request) as analyzed:
                    begun = time.perf_counter()
                    report = dataspace.explain_analyze(iql)
                    traced_s += clock.scale(time.perf_counter() - begun)
                factor = clock.factor
                leaves, roots, seconds_ = fold_spans(
                    report.trace.roots, self_ms, rows, factor,
                    lambda operator, own: recorder.adopt(
                        analyzed, f"query.op.{operator}", own))
                leaf += leaves
                root += roots
                root_s += seconds_
                result_s += report.result.elapsed_seconds * factor
                for name, value in report.trace.counters.items():
                    counters[name] = counters.get(name, 0) + value
        row.update(operator_metrics(self_ms, rows))
        row["query.engine.rows_per_result"] = leaf / max(1, root)
        row["query.engine.unattributed_pct"] = (
            max(0.0, result_s - root_s) / result_s * 100.0
            if result_s else 0.0)
        row.update(counter_metrics(counters))
        row["trace.overhead_pct"] = ((traced_s - plain_s) / plain_s * 100.0
                                     if plain_s else 0.0)
        passes.append(row)

    metrics: dict[str, float | None] = {
        name: harness.median(p.get(name, 0.0) for p in passes)
        for name in passes[-1]}
    if engine is None:
        for name in ("query.engine.compile_us", "query.engine.drain_ms",
                     "query.executor.materialize_ms"):
            metrics[name] = None
        for qid, _ in mix:
            metrics[f"query.engine.drain_ms.{qid}"] = None
            metrics[f"query.executor.materialize_ms.{qid}"] = None
    metrics.update(substrate_layers(dataspace, mix, recorder, clock, notes))
    return metrics


def substrate_layers(dataspace, mix, recorder, clock, notes: dict,
                     repeats: int = 15) -> dict[str, float | None]:
    """Index, catalog, replica, keyset and dictionary calls on their
    own, with the arguments Q1-Q3 and Q8 pass them."""
    queries = dict(mix)
    metrics: dict[str, float | None] = {}

    def measure(name, scale, build):
        """``build()`` returns ``(call, units)``; the metric is the
        median time of ``call()`` per unit, times ``scale``."""
        try:
            call, units = build()
            clock.spin()
            times = []
            for _ in range(repeats):
                with recorder.span(name):
                    begun = time.perf_counter()
                    call()
                    times.append(time.perf_counter() - begun)
            metrics[name] = (clock.scale(harness.median(times))
                             / max(1, units) * scale)
        except _RENAMED as error:
            metrics[name] = None
            notes[name] = f"{type(error).__name__}: {error}"

    def context():
        from repro.query.executor import ExecutionContext
        return ExecutionContext(dataspace.rvm, dataspace.processor.functions)

    def plan_nodes(qid, kind):
        ctx = context()
        processor = dataspace.processor
        plan = processor._prepared_plan(  # noqa: SLF001
            processor.prepare(queries[qid]), ctx)
        return ctx, [n for n in _plan_nodes(plan)
                     if type(n).__name__ == kind]

    def content(qid):
        def build():
            ctx, (node,) = plan_nodes(qid, "ContentSearch")
            return (lambda: ctx.content_search_ids(
                node.text, is_phrase=node.is_phrase,
                wildcard=node.wildcard)), 1
        return build

    def tuples():
        ctx, nodes = plan_nodes("q3", "TupleCompare")
        return (lambda: [ctx.tuple_compare_ids(n.attribute, n.op, n.value)
                         for n in nodes]), 1

    def keyset_and():
        ctx, nodes = plan_nodes("q3", "TupleCompare")
        left, right = (ctx.tuple_compare_ids(n.attribute, n.op, n.value)
                       for n in nodes)
        return (lambda: left.and_(right)), 1

    def children():
        replica = dataspace.rvm.indexes.group_replica
        ids = dataspace.rvm.catalog.all_ids().to_list()[:1000]
        return (lambda: [replica.children_ids(i) for i in ids]), len(ids)

    def keys_for_ids():
        ctx, (node,) = plan_nodes("q1", "ContentSearch")
        ids = ctx.content_search_ids(node.text, is_phrase=node.is_phrase,
                                     wildcard=node.wildcard)
        view = ctx.dict_view
        return (lambda: view.keys_for_ids(ids)), len(ids)

    def uris_for():
        call, units = keys_for_ids()
        keys = call()
        view = context().dict_view
        return (lambda: view.uris_for(keys)), units

    measure("fulltext.search_ms", 1e3, content("q1"))
    measure("fulltext.phrase_ms", 1e3, content("q2"))
    measure("tupleindex.range_ms", 1e3, tuples)
    measure("rvm.catalog.name_lookup_us", 1e6, lambda: (
        lambda: dataspace.rvm.catalog.ids_by_name("papers"), 1))
    measure("rvm.catalog.class_lookup_ms", 1e3, lambda: (
        lambda: context().class_lookup_ids("emailmessage"), 1))
    measure("rvm.replicas.children_us_per_1k", 1e9, children)
    measure("rvm.keyset.and_us", 1e6, keyset_and)
    measure("rvm.uridict.keys_for_ids_us_per_1k", 1e9, keys_for_ids)
    measure("rvm.uridict.uris_for_us_per_1k", 1e9, uris_for)
    return metrics
