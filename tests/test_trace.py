"""Tests for the tracing layer (repro.trace).

Three angles: the laziness story (tracing proves a name-only query
never touches content components), cooperative cancellation (spans stop
at the checkpoint that tripped), and the estimate-vs-actual contract
(every node type reports both sides, no ``None`` holes).
"""

from __future__ import annotations

import pytest

from repro.core.errors import QueryCancelled
from repro.core.resource_view import ResourceView
from repro.trace import TraceCollector


class TestLazinessVisibility:
    def test_name_only_query_fetches_no_content(self, tiny_dataspace):
        report = tiny_dataspace.explain_analyze("//*.tex")
        counters = report.trace.counters
        assert counters.get("ctx.content_search", 0) == 0
        assert counters.get("component.content.materialized", 0) == 0
        assert counters.get("ctx.name_pattern", 0) >= 1

    def test_keyword_query_hits_the_content_index_not_the_views(
            self, tiny_dataspace):
        """With the content replica in place, even keyword search stays
        index-only — zero component materializations."""
        report = tiny_dataspace.explain_analyze('"database"')
        counters = report.trace.counters
        assert counters.get("ctx.content_search", 0) >= 1
        assert counters.get("component.content.materialized", 0) == 0

    def test_first_force_of_a_lazy_component_is_counted_once(self):
        trace = TraceCollector()
        view = ResourceView(name=lambda: "report.tex",
                            content=lambda: "hello dataspace")
        with trace.activate():
            view.content.text()
            view.content.text()  # second read: already materialized
            view.name
        assert trace.counters["component.content.materialized"] == 1
        assert trace.counters["component.name.materialized"] == 1

    def test_forcing_outside_an_active_trace_counts_nothing(self):
        trace = TraceCollector()
        view = ResourceView(content=lambda: "hello")
        view.content.text()  # forced before the trace activates
        with trace.activate():
            view.content.text()
        assert "component.content.materialized" not in trace.counters

    def test_eager_components_never_report_materialization(self):
        trace = TraceCollector()
        view = ResourceView(name="plain", content="eager text")
        with trace.activate():
            view.content.text()
            view.name
        assert not any(key.startswith("component.")
                       for key in trace.counters)


class _TripAfter:
    """A cancel token that trips on the n-th checkpoint."""

    def __init__(self, checks: int):
        self.remaining = checks

    def check(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise QueryCancelled("tripped by test token")


class TestCancellationTracing:
    def test_cancelled_query_stops_emitting_spans(self, tiny_dataspace):
        processor = tiny_dataspace.processor
        query = '"database" or "tuning" or "vision" or "indexing"'
        # full run: Union + 4 ContentSearch spans
        full = processor.explain_analyze(query)
        assert full.trace.span_count == 5

        trace = TraceCollector()
        prepared = processor.prepare(query)
        token = _TripAfter(checks=1)  # second content_search checkpoint trips
        with pytest.raises(QueryCancelled):
            processor.execute_prepared(prepared, cancel_token=token,
                                       trace=trace)
        # spans stop at the checkpoint: Union + first search (ok) +
        # second search (cancelled); searches 3 and 4 never started
        assert trace.cancelled
        spans = list(trace.spans())
        assert len(spans) == 3
        statuses = {span.detail: span.status for span in spans}
        assert "cancelled" in statuses.values()
        assert all(span.status in ("ok", "cancelled") for span in spans)

    def test_aborted_spans_are_sealed_with_timings(self, tiny_dataspace):
        trace = TraceCollector()
        prepared = tiny_dataspace.processor.prepare('"database"')
        with pytest.raises(QueryCancelled):
            tiny_dataspace.processor.execute_prepared(
                prepared, cancel_token=_TripAfter(checks=0), trace=trace)
        for span in trace.spans():
            assert span.status != "running"
            assert span.elapsed_seconds is not None


class TestEarlyTermination:
    """The engine's work counters prove LIMIT and cancellation stop the
    scan mid-corpus — latency flatness is benchmarked, but *these* pin
    the mechanism: ``engine.rows_scanned`` is what the streaming scans
    actually consumed (for a name scan: distinct names examined)."""

    QUERY = "//*e*"  # a streaming NameScan over every distinct name

    def _scanned(self, dataspace, *, limit=None, engine=None,
                 cancel_token=None) -> tuple[TraceCollector, int]:
        trace = TraceCollector()
        processor = dataspace.processor
        processor.execute_prepared(processor.prepare(self.QUERY),
                                   trace=trace, limit=limit, engine=engine,
                                   cancel_token=cancel_token)
        return trace, trace.counters.get("engine.rows_scanned", 0)

    def test_limit_scans_rows_proportional_to_k_not_the_corpus(
            self, tiny_dataspace):
        from repro.query.engine import EngineConfig
        _, full_scan = self._scanned(tiny_dataspace)
        corpus = tiny_dataspace.view_count
        # limit 10 with a 16-row vector: the scan stops after one batch,
        # filled from a few vectors of names whatever the corpus holds
        trace, limited_scan = self._scanned(
            tiny_dataspace, limit=10, engine=EngineConfig(batch_size=16))
        assert limited_scan <= 3 * 16, (
            f"LIMIT 10 examined {limited_scan} names of a {corpus}-view "
            f"corpus")
        assert limited_scan * 2 < full_scan
        # the sealed scan span records its bounded batch count
        scan = next(s for s in trace.spans()
                    if s.operator == "NamePattern")
        assert scan.status == "ok" and scan.batches == 1

    def test_cancellation_between_batches_stops_the_scan(
            self, tiny_dataspace):
        from repro.query.engine import EngineConfig
        with pytest.raises(QueryCancelled):
            self._scanned(tiny_dataspace,
                          engine=EngineConfig(batch_size=32),
                          cancel_token=_TripAfter(checks=2))
        # re-run to inspect: the token admits two pulls, so only ~two
        # vectors of rows are consumed before the abort
        trace = TraceCollector()
        processor = tiny_dataspace.processor
        with pytest.raises(QueryCancelled):
            processor.execute_prepared(
                processor.prepare(self.QUERY), trace=trace,
                engine=EngineConfig(batch_size=32),
                cancel_token=_TripAfter(checks=2))
        assert trace.cancelled
        scanned = trace.counters.get("engine.rows_scanned", 0)
        assert scanned < tiny_dataspace.view_count // 4, (
            f"cancelled scan still consumed {scanned} rows")
        for span in trace.spans():
            assert span.status in ("ok", "cancelled")
            assert span.elapsed_seconds is not None


class TestEstimateContract:
    #: queries that together cover every plan-node type: AllViews,
    #: RootViews, ContentSearch, NameEquals, NamePattern, ClassLookup,
    #: TupleCompare, Intersect, Union, Complement, ExpandStep, Join
    QUERIES = [
        '"database" and size > 100',
        'not "database"',
        '//*[class="latex_section"]//*["figure"]',
        '/*',                               # RootViews
        'union( //*[name="README"], //*.tex )',  # NameEquals, NamePattern
        'join( //*[class="texref"] as A, //*[class="figure"] as B, '
        'A.name = B.tuple.label )',
    ]

    def test_every_span_reports_estimate_and_actual(self, tiny_dataspace):
        seen_operators = set()
        for query in self.QUERIES:
            report = tiny_dataspace.explain_analyze(query)
            for span in report.trace.spans():
                seen_operators.add(span.operator)
                assert span.estimate is not None, (query, span.detail)
                assert span.actual_rows is not None, (query, span.detail)
                assert span.elapsed_seconds is not None
                assert span.status == "ok"
        assert {"ContentSearch", "TupleCompare", "Intersect", "Union",
                "Complement", "ExpandStep", "Join", "RootViews",
                "NameEquals", "NamePattern", "ClassLookup"} <= seen_operators

    def test_leaf_estimates_are_exact_for_index_lookups(self, tiny_dataspace):
        report = tiny_dataspace.explain_analyze('//*[class="figure"]')
        lookup = next(s for s in report.trace.spans()
                      if s.operator == "ClassLookup")
        assert lookup.estimate == lookup.actual_rows


class TestServiceTraceMetrics:
    def test_trace_aggregates_fold_into_service_metrics(self, tiny_dataspace):
        with tiny_dataspace.serve(workers=2, trace_queries=True) as service:
            service.execute('"database"', use_cache=False)
            service.execute('"database" and size > 100', use_cache=False)
            stats = service.stats()
        assert stats["query.op.ContentSearch.calls"] >= 2
        assert stats["query.op.ContentSearch.rows"] > 0
        assert stats["query.op.ContentSearch.seconds"].count >= 2
        assert stats["query.ctx.content_search"] >= 2

    def test_tracing_is_off_by_default(self, tiny_dataspace):
        with tiny_dataspace.serve(workers=1) as service:
            service.execute('"database"', use_cache=False)
            stats = service.stats()
        assert not any(name.startswith("trace.") for name in stats)
