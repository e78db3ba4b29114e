"""Property and concurrency tests for the compressed keyset.

:class:`repro.rvm.keyset.KeySet` is the id-set representation every
index and replica stores (DESIGN.md §4j). These tests pin it against
the obvious oracle — a plain ``set[int]`` — under random operation
sequences, exercise the sparse↔dense container promotion boundaries
explicitly, and check the one-writer/many-readers contract with real
threads.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.rvm.keyset import (
    CHUNK_MASK,
    KeySet,
    SPARSE_MAX,
    _BITMAP_BYTES,
)

#: ids spanning several chunks, with collisions likely (small range)
#: and chunk-boundary values always reachable
IDS = st.integers(min_value=0, max_value=3 * (CHUNK_MASK + 1))

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), IDS),
        st.tuples(st.just("discard"), IDS),
    ),
    max_size=200,
)

SETS = st.sets(IDS, max_size=300)


def check_equal(keyset: KeySet, oracle: set[int]) -> None:
    assert len(keyset) == len(oracle)
    assert keyset.cardinality() == len(oracle)
    assert sorted(oracle) == list(keyset.iter_sorted())
    assert sorted(oracle) == keyset.to_list()
    assert bool(keyset) == bool(oracle)


class TestKeySetVsSetOracle:
    @given(OPS)
    @settings(max_examples=150, deadline=None)
    def test_add_discard_sequences(self, ops):
        keyset, oracle = KeySet(), set()
        for op, value in ops:
            if op == "add":
                assert keyset.add(value) == (value not in oracle)
                oracle.add(value)
            else:
                assert keyset.discard(value) == (value in oracle)
                oracle.discard(value)
            assert (value in keyset) == (value in oracle)
        check_equal(keyset, oracle)

    @given(SETS, SETS)
    @settings(max_examples=150, deadline=None)
    def test_binary_algebra(self, a, b):
        ka, kb = KeySet.from_iterable(a), KeySet.from_iterable(b)
        check_equal(ka.and_(kb), a & b)
        check_equal(ka.or_(kb), a | b)
        check_equal(ka.andnot(kb), a - b)
        check_equal(ka & kb, a & b)
        check_equal(ka | kb, a | b)
        check_equal(ka - kb, a - b)
        assert ka.isdisjoint(kb) == a.isdisjoint(b)
        # inputs are not mutated by the operators
        check_equal(ka, a)
        check_equal(kb, b)

    @given(SETS, SETS)
    @settings(max_examples=100, deadline=None)
    def test_structural_equality_is_canonical(self, a, b):
        """Two keysets are ``==`` iff their member sets are — however
        they were built (bulk constructor vs incremental adds)."""
        bulk = KeySet.from_iterable(a)
        incremental = KeySet()
        for value in a:
            incremental.add(value)
        assert bulk == incremental
        assert (bulk == KeySet.from_iterable(b)) == (a == b)

    @given(SETS)
    @settings(max_examples=100, deadline=None)
    def test_from_sorted_and_copy(self, a):
        keyset = KeySet.from_sorted(sorted(a))
        check_equal(keyset, a)
        clone = keyset.copy()
        clone.add(3 * (CHUNK_MASK + 1) + 17)
        check_equal(keyset, a)  # copy-on-write: the original is intact

    @given(SETS, IDS)
    @settings(max_examples=100, deadline=None)
    def test_rank_matches_sorted_position(self, a, probe):
        """``rank(x)`` == bisect_left position of x in the sorted
        member list, for members and non-members alike."""
        from bisect import bisect_left
        keyset = KeySet.from_iterable(a)
        ordered = sorted(a)
        assert keyset.rank(probe) == bisect_left(ordered, probe)


class TestPromotionBoundaries:
    """The sparse array ↔ dense bitmap promotion at SPARSE_MAX."""

    @pytest.mark.parametrize("count", [SPARSE_MAX - 1, SPARSE_MAX,
                                       SPARSE_MAX + 1, SPARSE_MAX + 2])
    def test_layout_flips_exactly_past_sparse_max(self, count):
        keyset = KeySet.from_iterable(range(count))
        layout = keyset.chunk_layout()
        assert layout["chunks"] == 1
        if count > SPARSE_MAX:
            assert layout == {"chunks": 1, "dense": 1, "sparse": 0}
        else:
            assert layout == {"chunks": 1, "dense": 0, "sparse": 1}
        assert keyset.to_list() == list(range(count))

    @pytest.mark.parametrize("count", [SPARSE_MAX - 1, SPARSE_MAX,
                                       SPARSE_MAX + 1])
    def test_bulk_build_is_the_add_built_set(self, count):
        """``from_iterable`` takes unsorted, duplicated, multi-chunk
        input in one sort and lands on exactly the containers a chain
        of ``add`` calls does — either side of the promotion point,
        chunk by chunk."""
        import random
        width = CHUNK_MASK + 1
        members = ([3 * i for i in range(count)]            # chunk 0
                   + [width + 5 * i for i in range(7)]      # chunk 1: sparse
                   + [2 * width + i for i in range(count + 1)]  # chunk 2
                   + [5 * width - 1])                       # a gap, chunk 4
        ids = members + members[::3]                        # duplicates
        random.Random(count).shuffle(ids)
        added = KeySet()
        for member in ids:
            added.add(member)
        bulk = KeySet.from_iterable(ids)
        assert bulk == added and added == bulk
        assert bulk.chunk_layout() == added.chunk_layout()
        check_equal(bulk, set(members))
        assert KeySet.from_sorted(sorted(ids)) == added
        assert KeySet.from_iterable(iter(ids)) == added  # a one-shot iterator
        assert KeySet.from_iterable([]) == KeySet()

    def test_incremental_promotion_and_demotion_round_trip(self):
        keyset = KeySet()
        for i in range(SPARSE_MAX + 1):
            keyset.add(2 * i)  # sparse within one chunk... until it isn't
        assert keyset.chunk_layout()["dense"] == 1
        oracle = {2 * i for i in range(SPARSE_MAX + 1)}
        check_equal(keyset, oracle)
        # discarding back to SPARSE_MAX demotes to the array container
        assert keyset.discard(0)
        oracle.discard(0)
        assert keyset.chunk_layout() == {"chunks": 1, "dense": 0,
                                         "sparse": 1}
        check_equal(keyset, oracle)

    def test_chunk_border_values(self):
        """65535 and 65536 land in different chunks and stay ordered."""
        values = {CHUNK_MASK - 1, CHUNK_MASK, CHUNK_MASK + 1,
                  2 * (CHUNK_MASK + 1), 2 * (CHUNK_MASK + 1) + CHUNK_MASK}
        keyset = KeySet.from_iterable(values)
        assert keyset.chunk_layout()["chunks"] == 3
        check_equal(keyset, values)
        assert keyset.rank(CHUNK_MASK + 1) == 2

    def test_empty_chunk_is_dropped(self):
        keyset = KeySet.from_iterable([5, CHUNK_MASK + 7])
        keyset.discard(CHUNK_MASK + 7)
        assert keyset.chunk_layout()["chunks"] == 1
        keyset.discard(5)
        assert keyset.chunk_layout()["chunks"] == 0
        assert not keyset

    def test_dense_or_dense_stays_dense(self):
        a = KeySet.from_iterable(range(0, 2 * SPARSE_MAX, 2))
        b = KeySet.from_iterable(range(1, 2 * SPARSE_MAX, 2))
        union = a.or_(b)
        assert union.chunk_layout()["dense"] == 1
        assert len(union) == 2 * SPARSE_MAX

    def test_dense_and_dense_can_demote(self):
        a = KeySet.from_iterable(range(SPARSE_MAX + 1))
        b = KeySet.from_iterable(range(SPARSE_MAX, 2 * SPARSE_MAX + 1))
        meet = a.and_(b)
        assert meet.to_list() == [SPARSE_MAX]
        assert meet.chunk_layout() == {"chunks": 1, "dense": 0, "sparse": 1}

    def test_size_bytes_tracks_layout(self):
        sparse = KeySet.from_iterable(range(100))
        dense = KeySet.from_iterable(range(SPARSE_MAX + 100))
        assert sparse.size_bytes() < dense.size_bytes()
        # a dense chunk costs the bitmap, not 8 bytes per member
        assert dense.size_bytes() < 8 * len(dense)
        assert dense.size_bytes() >= _BITMAP_BYTES


class TestReadUnderMutation:
    """One writer, many readers, no locks: readers iterating a snapshot
    of the chunk dict must never crash or observe a torn container."""

    def test_eight_reader_threads_during_writes(self):
        keyset = KeySet.from_iterable(range(0, 20_000, 4))
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader():
            try:
                while not stop.is_set():
                    last = -1
                    total = 0
                    for value in keyset.iter_sorted():
                        assert value > last  # sorted, never torn
                        last = value
                        total += 1
                    assert total > 0
                    keyset.rank(10_000)
                    assert 0 in keyset or True
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        try:
            # writer: grow through the promotion boundary and shrink back
            for value in range(1, 30_000, 3):
                keyset.add(value)
            for value in range(1, 30_000, 6):
                keyset.discard(value)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        # final state is exactly what the single writer produced
        oracle = set(range(0, 20_000, 4))
        oracle.update(range(1, 30_000, 3))
        oracle.difference_update(range(1, 30_000, 6))
        check_equal(keyset, oracle)
