"""Differential plan-equivalence properties for the optimizer.

For generated iQL queries over randomized dataspaces the optimizer must
be *semantics-preserving*: the optimized plan returns exactly the URI
set of the raw (unoptimized) plan. It must also be *idempotent* —
optimizing an already-optimized plan changes nothing. Together these
pin the rewrite rules (flattening, reordering, double-negation
elimination, universe dropping) against silent regressions, which pure
golden tests cannot do.

Comparison types are constrained per attribute (``size`` is numeric,
``modified`` temporal, ``label`` textual) so both plans evaluate every
comparison without type errors — a raw/optimized divergence can then
only mean an optimizer bug.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.query.engine import materialize_set, reference_execute
from repro.query.executor import ExecutionContext
from repro.query.optimizer import optimize
from repro.query.plan import Limit

from .queries import QUERIES as _QUERIES, SEEDS as _SEEDS, space as _space


def _uris(plan, dataspace):
    ctx = ExecutionContext(dataspace.rvm, dataspace.processor.functions)
    return materialize_set(plan, ctx)


class TestDifferentialEquivalence:
    @given(_QUERIES, st.integers(0, len(_SEEDS) - 1))
    @settings(max_examples=200, deadline=None)
    def test_optimized_plan_returns_identical_uris(self, query, index):
        """optimize(plan) and the raw plan agree on every generated
        query (the acceptance bar: >= 200 queries, zero mismatches)."""
        dataspace = _space(index)
        raw = dataspace.processor._build(query)
        optimized = optimize(raw)
        assert _uris(optimized, dataspace) == _uris(raw, dataspace)

    @given(_QUERIES)
    @settings(max_examples=200, deadline=None)
    def test_optimize_is_idempotent(self, query):
        """optimize(optimize(p)) == optimize(p), structurally (plan
        nodes are dataclasses, so == is deep)."""
        dataspace = _space(0)
        once = optimize(dataspace.processor._build(query))
        assert optimize(once) == once


class TestEngineDifferential:
    """The batched engine against the reference evaluator.

    :func:`reference_execute` re-implements the pre-engine semantics —
    monolithic set-at-a-time recursion, no batches, no merges, no early
    termination — as an independent oracle. The pipelined operator tree
    must return exactly its URI set on every generated query (the
    acceptance bar: >= 200 queries, zero mismatches)."""

    @staticmethod
    def _check(dataspace, query):
        plan = optimize(dataspace.processor._build(query))
        engine_ctx = ExecutionContext(dataspace.rvm,
                                      dataspace.processor.functions)
        oracle_ctx = ExecutionContext(dataspace.rvm,
                                      dataspace.processor.functions)
        assert materialize_set(plan, engine_ctx) \
            == reference_execute(plan, oracle_ctx)

    @given(_QUERIES, st.integers(0, len(_SEEDS) - 1))
    @settings(max_examples=200, deadline=None)
    def test_batched_engine_matches_reference_evaluator(self, query, index):
        self._check(_space(index), query)

    @given(_QUERIES, st.integers(0, len(_SEEDS) - 1), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_limit_is_a_prefix_sized_subset(self, query, index, k):
        """A planned limit returns min(k, |full|) rows, all drawn from
        the full result — early termination never invents or loses."""
        dataspace = _space(index)
        raw = dataspace.processor._build(query)
        full = _uris(optimize(raw), dataspace)
        limited = _uris(optimize(Limit(part=raw, count=k)), dataspace)
        assert len(limited) == min(k, len(full))
        assert limited <= full
