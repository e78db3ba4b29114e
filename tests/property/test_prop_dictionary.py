"""Differential properties for the dictionary-encoded engine.

The batched engine now moves ``int64`` dictionary sort keys through its
operators and materializes URI strings only at the result boundary
(DESIGN.md §4h); :func:`repro.query.engine.reference_execute` stays
deliberately string-based. These properties pin the encoding against
that independent oracle:

* on generated queries the integer engine returns exactly the oracle's
  URI set (the acceptance bar: >= 200 queries, zero mismatches);
* result batches really are ``array('q')`` columns whose key order is
  URI order, and whose lazy ``uris`` materialization round-trips;
* ``LIMIT`` early termination through integer batches stays a subset of
  the full result;
* interleaving sync mutations with queries never leaves a stale id
  behind: executions that started on an old dictionary view keep
  materializing correctly, and new views see the new URIs.

Since the keyset refactor (DESIGN.md §4j) the index layer hands the
engine compressed :class:`~repro.rvm.keyset.KeySet` s of catalog ids,
so the 200-query differential above now also pins engine-over-keyset-
postings against the string oracle. :class:`TestKeySetHandoff` adds the
acceptance counter pin — index-backed scans perform *zero* per-URI
string conversions (``query.dict.lookups`` flat, ``handoffs`` moving) —
and :class:`TestKeySetRecovery` proves the keysets rebuild as derived
state across ``Dataspace.open``.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset import TINY_PROFILE
from repro.durability import DurabilityConfig
from repro.durability.verify import verify_engine_matches_oracle
from repro.facade import Dataspace
from repro.imapsim.latency import no_latency
from repro.query.ast import CompareOp, Comparison, Literal, PredicateExpr
from repro.query.engine import (
    iter_batches,
    materialize_set,
    reference_execute,
)
from repro.query.executor import ExecutionContext
from repro.query.optimizer import optimize
from repro.query.plan import Limit
from repro.rvm.uridict import KEY_GAP, global_uri_dictionary

from .queries import QUERIES, SEEDS, space


def _ctx(dataspace) -> ExecutionContext:
    return ExecutionContext(dataspace.rvm, dataspace.processor.functions)


class TestIntegerEngineDifferential:
    """int-key batched engine ≡ string reference oracle."""

    @given(QUERIES, st.integers(0, len(SEEDS) - 1))
    @settings(max_examples=200, deadline=None)
    def test_integer_engine_matches_string_oracle(self, query, index):
        dataspace = space(index)
        plan = optimize(dataspace.processor._build(query))
        assert materialize_set(plan, _ctx(dataspace)) \
            == reference_execute(plan, _ctx(dataspace))

    @given(QUERIES, st.integers(0, len(SEEDS) - 1))
    @settings(max_examples=60, deadline=None)
    def test_batches_carry_int64_keys_in_uri_order(self, query, index):
        """Every result batch is an ``array('q')`` column bound to a
        dictionary view; ordered batches ascend in key order, and key
        order reproduces URI lexicographic order exactly."""
        dataspace = space(index)
        plan = optimize(dataspace.processor._build(query))
        ctx = _ctx(dataspace)
        for batch in iter_batches(plan, ctx):
            assert isinstance(batch.keys, array)
            assert batch.keys.typecode == "q"
            assert batch.view is not None
            assert batch.uris == batch.view.uris_for(batch.keys)
            if batch.ordered:
                keys = list(batch.keys)
                assert keys == sorted(keys)
                assert list(batch.uris) == sorted(batch.uris)

    @given(QUERIES, st.integers(0, len(SEEDS) - 1), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_limit_through_integer_batches_is_a_subset(self, query, index,
                                                       k):
        """Early termination over int batches returns min(k, |full|)
        rows, all drawn from the full result."""
        dataspace = space(index)
        raw = dataspace.processor._build(query)
        full = materialize_set(optimize(raw), _ctx(dataspace))
        limited = materialize_set(optimize(Limit(part=raw, count=k)),
                                  _ctx(dataspace))
        assert len(limited) == min(k, len(full))
        assert limited <= full


class TestMutationInterleaving:
    """Sync mutations interleaved with queries: no stale ids.

    A dedicated dataspace (not the shared strategy cache — these tests
    mutate it) grows across rounds; after every sync the engine must
    agree with the oracle, old dictionary views must keep materializing
    the batches they produced, and the new URIs must be findable.
    """

    # one dataspace per test class instantiation is too slow; module
    # state mirrors the strategy cache's build-once pattern
    _dataspace = None

    @classmethod
    def _mutable_space(cls) -> Dataspace:
        if cls._dataspace is None:
            cls._dataspace = Dataspace.generate(
                profile=TINY_PROFILE, seed=17, imap_latency=no_latency()
            )
            cls._dataspace.sync()
            cls._dataspace.watch()  # event-driven incremental sync
        return cls._dataspace

    def test_interleaved_syncs_and_queries_stay_differential(self):
        dataspace = self._mutable_space()
        for round_number in range(4):
            # a query executed before the mutation pins its view
            before = dataspace.query('"database"')
            column = before.column
            old_uris = before.uris()

            path = f"/Projects/dict-round-{round_number}.txt"
            dataspace.vfs.write_file(
                path, f"interleaved dictionary round {round_number} "
                      f"database views",
            )
            dataspace.refresh()

            # engine ≡ oracle on the grown corpus, every round
            report = verify_engine_matches_oracle(
                dataspace, seed=round_number, count=15
            )
            assert report.ok, report.mismatches

            # the new view is queryable through the integer engine
            hits = dataspace.query(f'name = "dict-round-{round_number}.txt"')
            assert len(hits) == 1

            # a column captured before the sync still decodes to the
            # same URIs: remaps replace arrays, they never mutate a
            # live view's
            assert list(column.view.uris_for(column.keys)) == old_uris

    def test_old_view_self_heals_on_late_arrivals(self):
        """A view captured before a sync resolves post-sync URIs via
        its overlay — order-consistently — and flags itself stale."""
        dataspace = self._mutable_space()
        dictionary = global_uri_dictionary()
        old_view = dictionary.view()
        assert not old_view.is_stale

        dataspace.vfs.write_file("/Projects/late-arrival.txt",
                                 "a late arrival")
        dataspace.refresh()
        assert old_view.is_stale  # the dictionary grew past the snapshot

        late = next(uri for uri in dataspace.rvm.catalog.all_uris()
                    if "late-arrival" in uri)
        key = old_view.key_for(late)
        assert old_view.uri_for(key) == late
        # the overlay key lands in URI order relative to base keys
        neighbours = sorted(
            uri for uri in dataspace.rvm.catalog.all_uris()
            if "late-arrival" not in uri and "dict-round" not in uri
        )
        smaller = [u for u in neighbours if u < late]
        larger = [u for u in neighbours if u > late]
        if smaller:
            assert old_view.key_for(smaller[-1]) < key
        if larger:
            assert key < old_view.key_for(larger[0])
        # and the *next* view has it as a base (gap-aligned) key
        fresh = dictionary.view()
        assert not fresh.is_stale
        assert fresh.key_for(late) % KEY_GAP == 0

    def test_stale_execution_resolves_late_keyset_ids(self):
        """An execution whose dictionary view predates a sync still
        answers index-backed plans whose keysets contain post-snapshot
        catalog ids: those ids fall past the view's id bridge and
        detour through the string overlay (DESIGN.md §4j), and the
        result still matches the string oracle."""
        dataspace = self._mutable_space()
        dictionary = global_uri_dictionary()
        ctx = _ctx(dataspace)
        stale_view = ctx.dict_view  # pin the pre-sync snapshot

        dataspace.vfs.write_file("/Projects/late-keyset.txt",
                                 "a late keyset arrival database")
        dataspace.refresh()
        assert stale_view.is_stale

        # the name-index keyset really carries the post-snapshot id
        late_uri = next(uri for uri in dataspace.rvm.catalog.all_uris()
                        if "late-keyset" in uri)
        late_id = dictionary.intern(late_uri)
        assert late_id in dataspace.rvm.catalog.ids_by_name(
            "late-keyset.txt"
        )

        query = PredicateExpr(Comparison("name", CompareOp.EQ,
                                         Literal("late-keyset.txt")))
        plan = optimize(dataspace.processor._build(query))
        engine = materialize_set(plan, ctx)  # stale view: overlay path
        assert engine == reference_execute(plan, _ctx(dataspace))
        assert engine == {late_uri}


class TestKeySetHandoff:
    """THE keyset acceptance pin (DESIGN.md §4j): index-backed scans
    hand compressed id sets straight to the engine.

    ``query.dict.lookups`` counts key↔URI string conversions;
    ``query.dict.handoffs`` counts id→key conversions that bypassed
    strings entirely. Draining an index-backed execution's batches —
    *without* materializing ``.uris`` — must leave the lookup counter
    flat while the handoff counter moves: no per-URI string hashing
    anywhere on the scan path.
    """

    #: every index/replica structure gets exercised: content postings,
    #: intersection and complement (catalog-universe) merges, the tuple
    #: index, and a class-bucket path scan
    INDEXED_QUERIES = (
        '"database"',
        '"the" and "paper"',
        'not "database"',
        '[size > 1000]',
        '//*[class = "emailmessage"]',
    )

    def test_indexed_scans_do_no_string_hashing(self):
        dataspace = space(0)
        dictionary = global_uri_dictionary()
        dictionary.view()  # settle any pending remap outside the window
        total_rows = 0
        handoffs_before = dictionary.handoffs
        for iql in self.INDEXED_QUERIES:
            stream = dataspace.query_iter(iql)
            lookups = dictionary.lookups
            total_rows += sum(len(batch) for batch in stream.batches())
            assert dictionary.lookups == lookups, iql  # flat: stringless
        assert total_rows > 0
        assert dictionary.handoffs > handoffs_before

    def test_rooted_path_is_stringless_on_the_second_execution(self):
        """A ``/``-rooted path asks the plugins for their roots and
        interns them at that edge. A root the catalog never saw may
        bind late — through the overlay, one string lookup — the first
        time; by the second execution it is a base key like any other
        and the whole path drains without touching a string."""
        dataspace = space(0)
        dictionary = global_uri_dictionary()
        for _ in dataspace.query_iter("/*/*").batches():
            pass
        dictionary.view()  # settle the remap a late root asked for
        stream = dataspace.query_iter("/*/*")
        lookups = dictionary.lookups
        assert sum(len(batch) for batch in stream.batches()) > 0
        assert dictionary.lookups == lookups

    def test_uris_property_is_the_only_string_boundary(self):
        """Touching ``.uris`` on a drained batch is what converts keys
        back to strings — and only then does the lookup counter move."""
        dataspace = space(0)
        dictionary = global_uri_dictionary()
        dictionary.view()
        stream = dataspace.query_iter('not "database"')
        batches = list(stream.batches())
        assert batches
        lookups = dictionary.lookups
        materialized = sum(len(batch.uris) for batch in batches)
        assert materialized > 0
        assert dictionary.lookups == lookups + materialized


class TestKeySetRecovery:
    """Recovery via ``Dataspace.open`` rebuilds the id-keyed keysets.

    Ids never appear in snapshots or the WAL — the load path re-interns
    every URI and rebuilds the keysets as derived state. The reopened
    dataspace must answer identically to its pre-close self, agree with
    the string oracle on generated queries, and still scan stringlessly.
    """

    @pytest.fixture(scope="class")
    def reopened(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("keyset-durable") / "space"
        config = DurabilityConfig(directory=directory, fsync="off")
        dataspace = Dataspace.generate(profile=TINY_PROFILE, seed=29,
                                       imap_latency=no_latency(),
                                       durability=config)
        dataspace.sync()
        answers = {q: set(dataspace.query(q).uris())
                   for q in TestKeySetHandoff.INDEXED_QUERIES}
        dataspace.checkpoint()
        dataspace.close()
        return answers, Dataspace.open(directory, durable=False)

    def test_recovered_engine_matches_oracle(self, reopened):
        _, dataspace = reopened
        report = verify_engine_matches_oracle(dataspace, seed=29, count=40)
        assert report.ok, report.mismatches

    def test_recovered_answers_match_pre_close(self, reopened):
        answers, dataspace = reopened
        for query, expected in answers.items():
            assert set(dataspace.query(query).uris()) == expected, query

    def test_recovered_scans_stay_stringless(self, reopened):
        _, dataspace = reopened
        dictionary = global_uri_dictionary()
        dictionary.view()
        stream = dataspace.query_iter('not "database"')
        lookups = dictionary.lookups
        rows = sum(len(batch) for batch in stream.batches())
        assert rows > 0
        assert dictionary.lookups == lookups
