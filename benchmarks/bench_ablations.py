"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's evaluation: they quantify why the prototype
is built the way it is.

1. **Index-backed predicates vs full scans** — every iQL predicate leaf
   resolves through an index; the ablation answers the same keyword
   query by scanning live content components.
2. **Candidate pushdown in path steps** — ExpandStep intersects the
   expansion with an index-computed candidate set; the ablation expands
   first and filters per view afterwards.
3. **Group replica vs data-source traversal** — forward expansion runs
   on the in-memory replica; the ablation traverses the live resource
   view graph (forcing group components from the sources).
4. **Conjunct reordering** — the rule-based optimizer orders an
   intersection cheapest-first; the ablation runs the same plan in the
   adversarial (most-expensive-first) order.
"""

import time

from repro.core.graph import traverse
from repro.query.engine import materialize_set
from repro.query.executor import ExecutionContext
from repro.query.functions import FunctionTable
from repro.query.plan import (
    ClassLookup,
    ContentSearch,
    Intersect,
    NamePattern,
)


def _context(harness):
    return ExecutionContext(harness.dataspace.rvm, FunctionTable())


class TestIndexVsScan:
    def test_index_matches_scan(self, harness):
        rvm = harness.dataspace.rvm
        indexed = materialize_set(ContentSearch(text="database"),
                                  _context(harness))
        scanned = set()
        for uri, view in rvm.sync.live_views.items():
            content = view.content
            text = content.text() if content.is_finite else content.take(4096)
            probe_terms = rvm.indexes.content_index.analyzer.terms(text)
            if "database" in probe_terms:
                scanned.add(uri)
        assert indexed == scanned

    def test_index_lookup_speed(self, harness, benchmark):
        ctx = _context(harness)
        benchmark(ctx.content_search_ids, "database", is_phrase=True,
                  wildcard=False)

    def test_full_scan_speed(self, harness, benchmark):
        rvm = harness.dataspace.rvm
        analyzer = rvm.indexes.content_index.analyzer

        def scan():
            hits = set()
            for uri, view in rvm.sync.live_views.items():
                content = view.content
                text = (content.text() if content.is_finite
                        else content.take(4096))
                if "database" in analyzer.terms(text):
                    hits.add(uri)
            return hits

        hits = benchmark.pedantic(scan, rounds=3, iterations=1)
        assert hits  # the ablation still finds the answers, just slowly


class TestCandidatePushdown:
    QUERY_INPUT = '//papers'

    def test_pushdown_equivalent_to_post_filter(self, harness):
        ctx = _context(harness)
        from repro.query.ast import Axis
        from repro.query.plan import ExpandStep, NameEquals
        pushed = materialize_set(ExpandStep(
            input=NameEquals(name="papers"), axis=Axis.DESCENDANT,
            candidates=NamePattern(pattern="*.tex"),
        ), ctx)
        unfiltered = materialize_set(ExpandStep(
            input=NameEquals(name="papers"), axis=Axis.DESCENDANT,
            candidates=None,
        ), _context(harness))
        post = {uri for uri in unfiltered
                if harness.dataspace.rvm.indexes.name_of(uri).endswith(".tex")}
        assert pushed == post

    def test_pushdown_speed(self, harness, benchmark):
        from repro.query.ast import Axis
        from repro.query.plan import ExpandStep, NameEquals

        def run():
            ctx = _context(harness)
            return materialize_set(ExpandStep(
                input=NameEquals(name="papers"), axis=Axis.DESCENDANT,
                candidates=NamePattern(pattern="*.tex"),
            ), ctx)

        assert benchmark(run)


class TestReplicaVsLiveTraversal:
    def test_replica_expansion_matches_live_graph(self, harness):
        rvm = harness.dataspace.rvm
        root_uri = "fs:///papers"
        replica_set = rvm.indexes.group_replica.descendants(root_uri)
        root_view = rvm.view(root_uri)
        live_set = {v.view_id.uri for v, d in traverse(root_view) if d > 0}
        assert replica_set == live_set

    def test_replica_expansion_speed(self, harness, benchmark):
        replica = harness.dataspace.rvm.indexes.group_replica
        result = benchmark(replica.descendants, "fs:///papers")
        assert result

    def test_live_traversal_speed(self, harness, benchmark):
        rvm = harness.dataspace.rvm
        root_view = rvm.view("fs:///papers")

        def walk():
            return sum(1 for _ in traverse(root_view))

        assert benchmark(walk) > 0


class TestConjunctReordering:
    def _parts(self):
        return (
            NamePattern(pattern="*"),            # expensive scan
            ContentSearch(text="database"),      # mid-cost
            ClassLookup(class_name="latex_section"),  # cheap + selective
        )

    def test_orders_agree_on_results(self, harness):
        worst = Intersect(self._parts())
        best = Intersect(tuple(sorted(self._parts(), key=lambda p: p.COST)))
        assert materialize_set(worst, _context(harness)) == \
            materialize_set(best, _context(harness))

    def test_optimized_order_speed(self, harness, benchmark):
        plan = Intersect(tuple(sorted(self._parts(), key=lambda p: p.COST)))

        def run():
            return materialize_set(plan, _context(harness))

        benchmark(run)

    def test_adversarial_order_speed(self, harness, benchmark):
        plan = Intersect(tuple(sorted(self._parts(), key=lambda p: -p.COST)))

        def run():
            return materialize_set(plan, _context(harness))

        benchmark(run)
