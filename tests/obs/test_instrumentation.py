"""End-to-end telemetry: every subsystem feeds the global registry.

One tiny dataspace, synced and queried through a serve session, must
light up all four namespaces; the slow-query log must capture slow
executions (span tree included) and ignore fast ones; the service
``stats()`` must carry both the legacy flat keys and their
dotted-convention aliases.
"""

from __future__ import annotations

from repro import obs
from repro.dataset import TINY_PROFILE
from repro.facade import Dataspace
from repro.imapsim.latency import no_latency


def build_dataspace() -> Dataspace:
    return Dataspace.generate(profile=TINY_PROFILE, seed=7,
                              imap_latency=no_latency())


class TestNamespaceCoverage:
    def test_sync_and_serve_light_up_all_namespaces(self):
        dataspace = build_dataspace()
        dataspace.sync()
        with dataspace.serve(workers=2) as service:
            service.execute('"database"')
            service.execute("/*")
        snapshot = obs.global_metrics().snapshot()
        namespaces = {name.split(".", 1)[0].split("{", 1)[0]
                      for name in snapshot}
        assert {"query", "sync", "index", "service"} <= namespaces
        # a few load-bearing series, by name
        assert snapshot["sync.sources_scanned"] == 3
        assert snapshot["sync.views_synced"] > 0
        assert snapshot["query.executions"] >= 2
        assert snapshot["service.queries.served"] >= 2
        assert snapshot['index.entries{index="catalog"}'] > 0

    def test_sync_emits_structured_events(self):
        dataspace = build_dataspace()
        dataspace.sync()
        events = obs.global_events().snapshot(subsystem="sync")
        assert any(e.name == "sync.source_scanned" for e in events)

    def test_engine_counts_rows_for_traced_and_untraced_alike(self):
        dataspace = build_dataspace()
        dataspace.sync()
        dataspace.query('"database"')
        untraced = obs.global_metrics().snapshot()["query.engine.rows"]
        assert untraced > 0
        dataspace.explain_analyze('"database"')
        traced = obs.global_metrics().snapshot()["query.engine.rows"]
        assert traced == 2 * untraced  # same names, same counts

    def test_telemetry_facade_accessors(self):
        dataspace = build_dataspace()
        dataspace.sync()
        assert dataspace.telemetry()["sync.sources_scanned"] == 3
        assert dataspace.slow_queries() == []
        assert any(e.subsystem == "sync" for e in dataspace.events())


class TestDictionaryMetrics:
    def test_query_dict_series_populate(self):
        """The URI dictionary reports size, lookups and remaps under
        ``query.dict.*`` — at batch granularity, so a single query adds
        a handful of increments, not one per row."""
        from repro.rvm.uridict import global_uri_dictionary

        dataspace = build_dataspace()
        dataspace.sync()
        # the process-global dictionary may already cover this corpus
        # from earlier tests; a probe intern forces the next execution
        # to remap inside this test's fresh registry
        global_uri_dictionary().intern("probe://dict-metrics")
        # lookups are counted where keys become strings: reading the URIs
        dataspace.query('"database"').uris()
        snapshot = obs.global_metrics().snapshot()
        assert snapshot["query.dict.size"] > 0
        assert snapshot["query.dict.lookups"] > 0
        assert snapshot["query.dict.remaps"] >= 1
        # and the dictionary namespace rides inside query.*
        assert {"query.dict.size", "query.dict.lookups",
                "query.dict.remaps"} <= set(snapshot)


class TestReplicaMetrics:
    def test_relabels_count_snapshot_builds_not_writes(self):
        """``rvm.replica.relabels`` moves once per label build: a write
        the overlay absorbs costs none, one that drops the snapshot
        costs one at the next read."""
        from repro.core.identity import ViewId
        from repro.core.resource_view import ResourceView
        from repro.rvm.replicas import GroupReplica

        def view(name, *children):
            return ResourceView(name, group=list(children),
                                view_id=ViewId("relabels", name))

        def relabels():
            return obs.global_metrics().snapshot().get(
                "rvm.replica.relabels", 0)

        replica = GroupReplica()
        leaf = view("a/leaf")
        replica.add(view("root", view("a", leaf), view("b")))
        replica.add(view("a", leaf))
        replica.labels()
        replica.labels()
        assert relabels() == 1
        replica.add(view("b", leaf))  # a late edge
        replica.labels()
        assert relabels() == 1
        replica.add(view("root", view("b")))  # tree edge above a subtree
        replica.labels()
        assert relabels() == 2


class TestSlowQueryCapture:
    def test_slow_queries_capture_with_span_tree(self):
        obs.configure(slow_query_seconds=0.0)
        dataspace = build_dataspace()
        dataspace.sync()
        dataspace.query('"database"')
        entries = obs.global_slowlog().entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.query == '"database"'
        assert entry.recaptured  # untraced run re-executed under a trace
        assert "ContentSearch" in entry.span_tree
        assert obs.global_metrics().snapshot()["query.slow"] == 1
        warnings = obs.global_events().snapshot(min_severity=obs.WARNING)
        assert any(e.name == "query.slow" for e in warnings)

    def test_fast_queries_stay_out_of_the_slow_log(self):
        obs.configure(slow_query_seconds=1000.0)
        dataspace = build_dataspace()
        dataspace.sync()
        dataspace.query('"database"')
        assert obs.global_slowlog().entries() == []
        assert "query.slow" not in obs.global_metrics().snapshot()

    def test_traced_executions_capture_without_recapture(self):
        obs.configure(slow_query_seconds=0.0,
                      slow_query_recapture=False)
        dataspace = build_dataspace()
        dataspace.sync()
        dataspace.explain_analyze('"database"')
        entries = obs.global_slowlog().entries()
        assert len(entries) == 1
        assert not entries[0].recaptured
        assert "ContentSearch" in entries[0].span_tree

    def test_streamed_executions_never_trigger_capture(self):
        obs.configure(slow_query_seconds=0.0)
        dataspace = build_dataspace()
        dataspace.sync()
        with dataspace.query_iter('"database"') as stream:
            list(stream)
        assert obs.global_slowlog().entries() == []
        snapshot = obs.global_metrics().snapshot()
        assert snapshot["query.streamed"] == 1
        assert snapshot["query.stream_seconds"].count == 1


class TestServiceStatsAliases:
    def test_trace_keys_alias_to_query_namespace(self):
        dataspace = build_dataspace()
        with dataspace.serve(workers=1, trace_queries=True) as service:
            service.execute('"database"', use_cache=False)
            stats = service.stats()
        assert stats["query.op.ContentSearch.calls"] >= 1
        assert not any(name.startswith("trace.") for name in stats)

    def test_global_snapshot_folds_into_stats(self):
        dataspace = build_dataspace()
        with dataspace.serve(workers=1) as service:
            service.execute('"database"')
            stats = service.stats()
            local_only = service.stats(include_global=False)
        assert "sync.views_synced" in stats
        assert "sync.views_synced" not in local_only
