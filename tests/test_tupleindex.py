"""Tests for the vertically partitioned tuple index."""

from datetime import date, datetime

import pytest

from repro.core.components import TupleComponent
from repro.tupleindex import TupleIndex, VerticalColumn


class TestVerticalColumn:
    def test_equals(self):
        column = VerticalColumn("size")
        column.insert("a", 10)
        column.insert("b", 20)
        column.insert("c", 10)
        assert sorted(column.equals(10)) == ["a", "c"]

    def test_range(self):
        column = VerticalColumn("size")
        for index, value in enumerate([5, 10, 15, 20]):
            column.insert(f"k{index}", value)
        assert sorted(column.range(10, 15)) == ["k1", "k2"]

    def test_range_exclusive(self):
        column = VerticalColumn("size")
        for index, value in enumerate([5, 10, 15]):
            column.insert(f"k{index}", value)
        assert column.range(5, 15, include_low=False,
                            include_high=False) == ["k1"]

    def test_open_range(self):
        column = VerticalColumn("n")
        for index in range(5):
            column.insert(f"k{index}", index)
        assert sorted(column.range(low=3)) == ["k3", "k4"]
        assert sorted(column.range(high=1)) == ["k0", "k1"]

    def test_remove(self):
        column = VerticalColumn("x")
        column.insert("a", 1)
        assert column.remove("a", 1)
        assert column.equals(1) == []
        assert not column.remove("a", 1)

    def test_mixed_types_grouped(self):
        column = VerticalColumn("v")
        column.insert("num", 5)
        column.insert("txt", "five")
        # a numeric range never sees the string entries
        assert column.range(0, 10) == ["num"]
        assert column.equals("five") == ["txt"]

    def test_dates_comparable_with_datetimes(self):
        column = VerticalColumn("modified")
        column.insert("d", date(2005, 6, 1))
        column.insert("dt", datetime(2005, 7, 1, 12))
        assert sorted(column.range(high=datetime(2005, 6, 15))) == ["d"]


class TestRangeAgainstBruteForce:
    """``range`` bisects both ends and slices; a filter over every
    entry is the specification."""

    #: duplicates in every type group: numbers (int, float, bool, a
    #: date), text, and values that fall back to their repr
    VALUES = [5, 5, 5.0, 7, -1, 2.5, True, date(1970, 1, 1),
              "", "a", "a", "b", "ab",
              (1, 2), (1, 2), frozenset(), b"x"]
    BOUNDS = [None, -2, 5, 5.0, 6, 100, False, "", "a", "aa", "z",
              (1, 2), b"a"]

    @staticmethod
    def _expected(column, low, high, include_low, include_high):
        from repro.tupleindex.vertical import _sort_key
        low_key = _sort_key(low) if low is not None else None
        high_key = _sort_key(high) if high is not None else None
        anchor = low_key if low_key is not None else high_key
        out = []
        for value, key in column.values():
            sort_key = _sort_key(value)
            if anchor is not None and sort_key[0] != anchor[0]:
                continue  # one type group only: the anchor bound's
            if low_key is not None and (
                    sort_key < low_key
                    or (sort_key == low_key and not include_low)):
                continue
            if high_key is not None and (
                    sort_key > high_key
                    or (sort_key == high_key and not include_high)):
                continue
            out.append(key)
        return out

    def test_every_bound_combination(self):
        column = VerticalColumn("v")
        for position, value in enumerate(self.VALUES):
            column.insert(position, value)
        checked = 0
        for low in self.BOUNDS:
            for high in self.BOUNDS:
                for include_low in (True, False):
                    for include_high in (True, False):
                        got = column.range(low, high,
                                           include_low=include_low,
                                           include_high=include_high)
                        assert got == self._expected(
                            column, low, high, include_low, include_high
                        ), (low, high, include_low, include_high)
                        checked += 1
        assert checked == len(self.BOUNDS) ** 2 * 4
        assert len(column.range()) == len(self.VALUES)

    def test_range_survives_entries_deleted_under_it(self):
        """``refresh()`` deleting column entries while a range scan is
        in flight used to end in an ``IndexError`` (found by the perf
        ledger's mixed read/write workload): the scan walked the column
        by index and re-derived the upper bound's sort key inside the
        loop. Reproduced without threads: a bound whose ``__float__``
        — called wherever its sort key is computed — removes an entry,
        as a writer on another thread would at that very moment."""
        column = VerticalColumn("size")
        for key, value in enumerate([10, 20, 30, 40]):
            column.insert(key, value)

        class ShrinkingBound(int):
            def __float__(self):
                column.remove(3, 40)  # a no-op after the first call
                return float(int(self))

        assert column.range(low=10, high=ShrinkingBound(100)) == [0, 1, 2]
        assert len(column) == 3


class TestTupleIndex:
    @pytest.fixture()
    def index(self):
        idx = TupleIndex()
        idx.add("file1", TupleComponent.from_dict(
            {"size": 500_000, "modified": datetime(2005, 5, 1)}
        ))
        idx.add("file2", TupleComponent.from_dict(
            {"size": 100, "modified": datetime(2005, 8, 1)}
        ))
        idx.add("elem1", TupleComponent.from_dict({"label": "fig:a"}))
        idx.add("empty", TupleComponent.empty())
        return idx

    def test_replica_serves_components(self, index):
        assert index.tuple_of("file1")["size"] == 500_000
        assert index.tuple_of("empty").is_empty
        assert index.tuple_of("ghost") is None

    def test_paper_q3_predicate(self, index):
        """[size > 420000 and lastmodified < @12.06.2005]"""
        big = index.greater_than("size", 420_000)
        old = index.less_than("modified", datetime(2005, 6, 12))
        assert big & old == {"file1"}

    def test_equals(self, index):
        assert index.equals("label", "fig:a") == {"elem1"}

    def test_equals_unknown_attribute(self, index):
        assert index.equals("ghost", 1) == set()

    def test_inclusive_bounds(self, index):
        assert index.greater_than("size", 100, inclusive=True) >= {"file2"}
        assert index.less_than("size", 100, inclusive=True) == {"file2"}

    def test_keys_with_attribute(self, index):
        assert index.keys_with_attribute("size") == {"file1", "file2"}

    def test_sparse_attributes_independent(self, index):
        # per-tuple schemas: label exists only on elem1
        assert index.keys_with_attribute("label") == {"elem1"}

    def test_remove_cleans_columns(self, index):
        index.remove("elem1")
        assert index.equals("label", "fig:a") == set()
        assert "label" not in index.attributes()

    def test_readd_replaces(self, index):
        index.add("file1", TupleComponent.from_dict({"size": 7}))
        assert index.greater_than("size", 420_000) == set()
        assert index.equals("size", 7) == {"file1"}

    def test_none_values_not_indexed(self):
        idx = TupleIndex()
        idx.add("k", TupleComponent.from_dict({"maybe": None}))
        assert idx.keys_with_attribute("maybe") == set()
        assert idx.tuple_of("k").get("maybe") is None

    def test_size_bytes_grows(self, index):
        before = index.size_bytes()
        index.add("new", TupleComponent.from_dict(
            {"size": 1, "extra": "text" * 50}
        ))
        assert index.size_bytes() > before

    def test_stats(self, index):
        stats = index.stats()
        assert stats.name == "tuple"
        assert stats.entries == 4
        assert stats.detail["attributes"] == 3
        assert stats.bytes_estimate == index.size_bytes()

    def test_equivalence_with_naive_scan(self):
        """Property-ish: vertical index answers match a full scan."""
        import random
        rng = random.Random(5)
        idx = TupleIndex()
        rows = {}
        for i in range(200):
            row = {"a": rng.randrange(50), "b": rng.random()}
            rows[f"k{i}"] = row
            idx.add(f"k{i}", TupleComponent.from_dict(row))
        threshold = 25
        naive = {k for k, row in rows.items() if row["a"] > threshold}
        assert idx.greater_than("a", threshold) == naive
        value = rows["k0"]["a"]
        naive_eq = {k for k, row in rows.items() if row["a"] == value}
        assert idx.equals("a", value) == naive_eq
