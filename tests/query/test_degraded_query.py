"""Degraded-but-answering queries.

With one of three sources down (its plugin's ``root_views`` raises
:class:`~repro.core.errors.DataSourceError`), a query that reaches back
to the live sources answers from the healthy ones and says what it is
missing in an accurate :class:`~repro.query.executor.DegradationReport`.
"""

#: A representative workload: the leading-child-axis shapes reach back
#: to the live sources (RootViews) on every execution; the others
#: answer from indexes built at sync time.
WORKLOAD = [
    "/*",
    '/INBOX//*["database"]',
    '"database"',
    "//papers//*",
]


def _imap_free(uris):
    return {uri for uri in uris if not uri.startswith("imap://")}


class TestDownSource:
    def test_roots_answer_from_the_healthy_sources(self, three_sources,
                                                   take_down):
        three_sources.sync()
        clean = set(three_sources.query("/*").uris())
        assert clean != _imap_free(clean)  # imap holds some roots
        take_down(three_sources, "imap")
        result = three_sources.query("/*")  # must not raise
        assert result.is_degraded
        assert result.degradation.sources_skipped == ["imap"]
        incident, = result.degradation.incidents
        assert (incident.authority, incident.operation) == ("imap",
                                                            "root_views")
        assert "imap" in result.degradation.summary()
        # partial: a subset of the clean answer that still covers
        # everything the healthy sources hold
        uris = set(result.uris())
        assert _imap_free(clean) <= uris <= clean

    def test_clean_run_reports_no_degradation(self, three_sources):
        three_sources.sync()
        for iql in WORKLOAD:
            result = three_sources.query(iql)
            assert not result.is_degraded
            assert result.degradation.incidents == []

    def test_explain_analyze_renders_degradation(self, three_sources,
                                                 take_down):
        three_sources.sync()
        take_down(three_sources, "imap")
        text = three_sources.explain_analyze("/*").render()
        assert "degradation:" in text
        assert "imap" in text
