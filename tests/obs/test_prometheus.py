"""Prometheus exposition: golden render, escaping, promcheck round-trip."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry, _prom_name
from repro.obs.promcheck import parse_samples, validate


def build_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.increment("sync.views_synced", 12)
    registry.increment("service.queries.served", 2,
                       labels={"tenant": "alice"})
    registry.set_gauge("index.entries", 42, labels={"index": "name"})
    for value in (1.0, 2.0, 3.0, 4.0):
        registry.observe("query.latency_seconds", value)
    return registry


GOLDEN = """\
# TYPE repro_index_entries gauge
repro_index_entries{index="name"} 42
# TYPE repro_query_latency_seconds summary
repro_query_latency_seconds{quantile="0.5"} 3
repro_query_latency_seconds{quantile="0.95"} 4
repro_query_latency_seconds{quantile="0.99"} 4
repro_query_latency_seconds_count 4
repro_query_latency_seconds_sum 10
# TYPE repro_service_queries_served counter
repro_service_queries_served{tenant="alice"} 2
# TYPE repro_sync_views_synced counter
repro_sync_views_synced 12
"""


class TestRender:
    def test_golden(self):
        assert build_registry().render_prometheus() == GOLDEN

    def test_every_line_validates(self):
        assert validate(build_registry().render_prometheus()) == []

    def test_samples_round_trip(self):
        samples = parse_samples(build_registry().render_prometheus())
        by_key = {(name, tuple(sorted(labels.items()))): value
                  for name, labels, value in samples}
        assert by_key[("repro_sync_views_synced", ())] == 12
        assert by_key[("repro_service_queries_served",
                       (("tenant", "alice"),))] == 2
        assert by_key[("repro_query_latency_seconds_sum", ())] == 10.0

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestEscaping:
    def test_label_values_escape(self):
        registry = MetricsRegistry()
        registry.increment("odd.metric",
                           labels={"path": 'a"b\\c\nd'})
        text = registry.render_prometheus()
        assert validate(text) == []
        [(name, labels, value)] = parse_samples(text)
        assert name == "repro_odd_metric"
        assert labels == {"path": 'a"b\\c\nd'}
        assert value == 1.0

    @pytest.mark.parametrize("raw,sanitized", [
        ("query.latency_seconds", "query_latency_seconds"),
        ("9starts.with.digit", "_starts_with_digit"),
        ("has-dash and space", "has_dash_and_space"),
        ("name:with:colons", "name:with:colons"),
    ])
    def test_name_sanitization(self, raw, sanitized):
        assert _prom_name(raw) == sanitized


class TestValidator:
    def test_rejects_malformed_lines(self):
        assert validate("not a metric line!") != []
        assert validate("metric{unclosed 1") != []
        assert validate("metric not_a_number") != []
        assert validate("# BOGUS comment") != []

    def test_parse_samples_raises_on_malformed(self):
        with pytest.raises(ValueError):
            parse_samples("metric not_a_number")

    def test_accepts_special_values(self):
        assert validate("m +Inf\nm2 NaN\nm3 -Inf") == []


class TestPromcheckCLI:
    def test_main_validates_stdin_text(self, tmp_path, capsys):
        from repro.obs.promcheck import main
        registry = MetricsRegistry()
        registry.increment("queries", 3, labels={"shard": "0"})
        path = tmp_path / "metrics.prom"
        path.write_text(registry.render_prometheus(), encoding="utf-8")
        assert main([str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_require_label_present(self, tmp_path, capsys):
        from repro.obs.promcheck import main
        registry = MetricsRegistry()
        registry.increment("queries", labels={"shard": "0"})
        registry.increment("plain")
        path = tmp_path / "metrics.prom"
        path.write_text(registry.render_prometheus(), encoding="utf-8")
        assert main([str(path), "--require-label", "shard"]) == 0
        out = capsys.readouterr().out
        assert "label 'shard':" in out

    def test_require_label_missing_fails(self, tmp_path, capsys):
        from repro.obs.promcheck import main
        registry = MetricsRegistry()
        registry.increment("plain")
        path = tmp_path / "metrics.prom"
        path.write_text(registry.render_prometheus(), encoding="utf-8")
        assert main([str(path), "--require-label", "shard"]) == 1
        assert "shard" in capsys.readouterr().err
