"""Benchmark for the replication-policy extension.

Full indexing vs the minimal (query shipping) policy: same answers,
different index footprint and query latency (the data-vs-query-shipping
trade-off of Section 5.2).
"""

import pytest

from repro.bench import PAPER_QUERIES
from repro.facade import Dataspace
from repro.imapsim.latency import no_latency
from repro.rvm import IndexingPolicy
from .conftest import BENCH_SCALE, BENCH_SEED


class TestReplicationPolicy:
    @pytest.fixture(scope="class")
    def minimal_dataspace(self):
        dataspace = Dataspace.generate(
            scale=BENCH_SCALE, seed=BENCH_SEED,
            imap_latency=no_latency(),
            policy=IndexingPolicy.minimal(),
        )
        dataspace.sync()
        return dataspace

    def test_footprint_shrinks(self, harness, minimal_dataspace):
        full = harness.dataspace.index_sizes()["total"]
        minimal = minimal_dataspace.index_sizes()["total"]
        print(f"\nindex bytes: full={full} minimal={minimal} "
              f"({minimal / full:.1%})")
        assert minimal < full * 0.6

    def test_answers_unchanged(self, harness, minimal_dataspace):
        for qid in ("Q1", "Q2", "Q4", "Q5"):
            full_result = harness.dataspace.query(PAPER_QUERIES[qid])
            minimal_result = minimal_dataspace.query(PAPER_QUERIES[qid])
            assert len(full_result) == len(minimal_result), qid

    def test_query_shipping_speed(self, minimal_dataspace, benchmark):
        result = benchmark.pedantic(
            minimal_dataspace.query, args=(PAPER_QUERIES["Q2"],),
            rounds=3, iterations=1,
        )
        assert len(result) > 0

    def test_data_shipping_speed(self, harness, benchmark):
        result = benchmark(harness.dataspace.query, PAPER_QUERIES["Q2"])
        assert len(result) > 0
