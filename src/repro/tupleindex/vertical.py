"""Vertically partitioned tuple index (decomposition storage model).

Every attribute that appears in any indexed tuple component gets its own
:class:`VerticalColumn`: a sorted array of ``(value, key)`` pairs.
Because schemas in iDM are per-tuple, different views contribute
different attribute subsets — vertical partitioning handles that
naturally, with each view appearing only in the columns of attributes it
actually has.

Values of mixed types sort within type groups (all ints/floats/dates
together, all strings together); cross-type comparisons never happen
because each query predicate compares against one concrete value and
only scans that value's group.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from datetime import date, datetime
from operator import itemgetter
from typing import Any, Iterator

from ..core.components import TupleComponent

#: Sort-group tags. Within a column, pairs are ordered by (group, value).
_GROUP_NUMBER = 0
_GROUP_TEXT = 1
_GROUP_OTHER = 2


def _sort_key(value: Any) -> tuple[int, Any]:
    if isinstance(value, bool):
        return (_GROUP_NUMBER, float(value))
    if isinstance(value, (int, float)):
        return (_GROUP_NUMBER, float(value))
    if isinstance(value, datetime):
        return (_GROUP_NUMBER, value.timestamp())
    if isinstance(value, date):
        return (_GROUP_NUMBER,
                datetime(value.year, value.month, value.day).timestamp())
    if isinstance(value, str):
        return (_GROUP_TEXT, value)
    return (_GROUP_OTHER, repr(value))


#: the fields of one column entry ``((group, comparable), key, value)``
_ENTRY_SORT_KEY = itemgetter(0)
_ENTRY_KEY = itemgetter(1)


class VerticalColumn:
    """One attribute's sorted column of ``(value, key)`` pairs.

    Key-generic: :class:`TupleIndex` stores int catalog ids, the unit
    tests (and any standalone use) may store strings — one column must
    keep a single key type so equal-value runs stay comparable.
    """

    __slots__ = ("name", "_entries")

    def __init__(self, name: str):
        self.name = name
        # entries are ((group, comparable), key, original_value)
        self._entries: list[tuple[tuple[int, Any], Any, Any]] = []

    def insert(self, key: Any, value: Any) -> None:
        insort(self._entries, (_sort_key(value), key, value))

    def remove(self, key: Any, value: Any) -> bool:
        probe = (_sort_key(value), key, value)
        index = bisect_left(self._entries, probe)
        if index < len(self._entries) and self._entries[index] == probe:
            del self._entries[index]
            return True
        # fall back: same sort key, any position (e.g. equal-sorting values)
        sort_key = _sort_key(value)
        index = bisect_left(self._entries, (sort_key,))
        while index < len(self._entries) and self._entries[index][0] == sort_key:
            if self._entries[index][1] == key:
                del self._entries[index]
                return True
            index += 1
        return False

    def equals(self, value: Any) -> list[Any]:
        sort_key = _sort_key(value)
        low = bisect_left(self._entries, (sort_key,))
        out = []
        while low < len(self._entries) and self._entries[low][0] == sort_key:
            out.append(self._entries[low][1])
            low += 1
        return out

    def range(self, low: Any = None, high: Any = None, *,
              include_low: bool = True, include_high: bool = True) -> list[Any]:
        """Keys with ``low <= value <= high`` (one type group only).

        Both ends are found by bisection over the sort keys — tuple
        comparisons in C, each bound's sort key computed once — and the
        answer is one slice. A slice clamps, so a writer deleting
        entries meanwhile shortens the answer instead of raising.
        """
        entries = self._entries
        if low is None and high is None:
            return [*map(_ENTRY_KEY, entries)]
        low_key = _sort_key(low) if low is not None else None
        high_key = _sort_key(high) if high is not None else None
        group = (low_key if low_key is not None else high_key)[0]
        # an open end (or a bound in a later group) stops at the type
        # group's edge: (group,) sorts before every (group, value)
        if low_key is None:
            start = bisect_left(entries, (group,), key=_ENTRY_SORT_KEY)
        else:
            start = (bisect_left if include_low else bisect_right)(
                entries, low_key, key=_ENTRY_SORT_KEY)
        if high_key is None or high_key[0] > group:
            stop = bisect_left(entries, (group + 1,), key=_ENTRY_SORT_KEY)
        else:
            stop = (bisect_right if include_high else bisect_left)(
                entries, high_key, key=_ENTRY_SORT_KEY)
        return [*map(_ENTRY_KEY, entries[start:stop])]

    def values(self) -> Iterator[tuple[Any, Any]]:
        for _, key, value in self._entries:
            yield value, key

    def __len__(self) -> int:
        return len(self._entries)

    def size_bytes(self) -> int:
        total = 0
        for _, key, value in self._entries:
            # int keys are the catalog ids of the keyset layout (8
            # bytes); the column stays key-generic for string callers
            total += (8 if isinstance(key, int)
                      else len(key.encode("utf-8"))) + 8
            if isinstance(value, str):
                total += len(value.encode("utf-8", "replace")) + 4
            else:
                total += 8
        return total


def _global_dictionary():
    # deferred: repro.rvm imports this package (indexes -> TupleIndex)
    from ..rvm.uridict import global_uri_dictionary
    return global_uri_dictionary()


def _new_keyset():
    from ..rvm.keyset import KeySet
    return KeySet()


class TupleIndex:
    """Replica + vertically partitioned index of tuple components.

    ``add(key, tuple_component)`` replicates the component and spreads
    its attributes over the per-attribute sorted columns. Internally
    everything is keyed by the URI dictionary's dense **catalog ids**
    (the keyset refactor, DESIGN.md §4j): columns store int keys, the
    replica dict is id-keyed, and each ``*_ids`` lookup returns a
    :class:`~repro.rvm.keyset.KeySet` the query engine consumes with no
    string conversion. The string-returning lookups remain for the
    reference oracle and external callers; :meth:`tuple_of` serves the
    replica (this structure, unlike the content index, *is* a replica —
    queries can read tuple values back without touching the data
    source).
    """

    def __init__(self) -> None:
        self._dictionary = _global_dictionary()
        self._columns: dict[str, VerticalColumn] = {}
        self._replica: dict[int, TupleComponent] = {}
        self._ids = _new_keyset()

    # -- writes -----------------------------------------------------------------

    def add(self, key: str, component: TupleComponent) -> None:
        view_id = self._dictionary.intern(key)
        if view_id in self._replica:
            self._remove_id(view_id)
        self._replica[view_id] = component
        self._ids.add(view_id)
        if component.is_empty:
            return
        for attribute, value in component.as_dict().items():
            if value is None:
                continue
            column = self._columns.get(attribute)
            if column is None:
                column = self._columns[attribute] = VerticalColumn(attribute)
            column.insert(view_id, value)

    def remove(self, key: str) -> bool:
        view_id = self._dictionary.id_of(key)
        if view_id is None or view_id not in self._replica:
            return False
        return self._remove_id(view_id)

    def _remove_id(self, view_id: int) -> bool:
        component = self._replica.pop(view_id, None)
        if component is None:
            return False
        self._ids.discard(view_id)
        if not component.is_empty:
            for attribute, value in component.as_dict().items():
                if value is None:
                    continue
                column = self._columns.get(attribute)
                if column is not None:
                    column.remove(view_id, value)
                    if not len(column):
                        del self._columns[attribute]
        return True

    # -- reads -------------------------------------------------------------------

    def __contains__(self, key: object) -> bool:
        if not isinstance(key, str):
            return False
        view_id = self._dictionary.id_of(key)
        return view_id is not None and view_id in self._replica

    def __len__(self) -> int:
        return len(self._replica)

    def tuple_of(self, key: str) -> TupleComponent | None:
        """Serve the replicated tuple component."""
        view_id = self._dictionary.id_of(key)
        if view_id is None:
            return None
        return self._replica.get(view_id)

    def tuple_of_id(self, view_id: int) -> TupleComponent | None:
        return self._replica.get(view_id)

    def attributes(self) -> list[str]:
        return sorted(self._columns)

    # id-returning lookups (the engine's zero-copy path) ----------------------

    def equals_ids(self, attribute: str, value: Any):
        column = self._columns.get(attribute)
        if column is None:
            return _new_keyset()
        from ..rvm.keyset import KeySet
        return KeySet.from_iterable(column.equals(value))

    def range_ids(self, attribute: str, low: Any = None, high: Any = None,
                  **bounds: bool):
        column = self._columns.get(attribute)
        if column is None:
            return _new_keyset()
        from ..rvm.keyset import KeySet
        return KeySet.from_iterable(column.range(low, high, **bounds))

    def greater_than_ids(self, attribute: str, value: Any, *,
                         inclusive: bool = False):
        return self.range_ids(attribute, low=value, include_low=inclusive)

    def less_than_ids(self, attribute: str, value: Any, *,
                      inclusive: bool = False):
        return self.range_ids(attribute, high=value, include_high=inclusive)

    def ids_with_attribute(self, attribute: str):
        column = self._columns.get(attribute)
        if column is None:
            return _new_keyset()
        from ..rvm.keyset import KeySet
        return KeySet.from_iterable(key for _, key in column.values())

    def all_ids(self):
        """The live keyset of replicated ids (read-only by convention)."""
        return self._ids

    # string-returning lookups (reference oracle, external callers) -----------

    def _uris(self, ids) -> set[str]:
        uri_of = self._dictionary.uri_of
        return {uri_of(i) for i in ids}

    def equals(self, attribute: str, value: Any) -> set[str]:
        column = self._columns.get(attribute)
        return self._uris(column.equals(value)) if column else set()

    def range(self, attribute: str, low: Any = None, high: Any = None,
              **bounds: bool) -> set[str]:
        column = self._columns.get(attribute)
        if column is None:
            return set()
        return self._uris(column.range(low, high, **bounds))

    def greater_than(self, attribute: str, value: Any, *,
                     inclusive: bool = False) -> set[str]:
        return self.range(attribute, low=value, include_low=inclusive)

    def less_than(self, attribute: str, value: Any, *,
                  inclusive: bool = False) -> set[str]:
        return self.range(attribute, high=value, include_high=inclusive)

    def keys_with_attribute(self, attribute: str) -> set[str]:
        column = self._columns.get(attribute)
        if column is None:
            return set()
        return self._uris(key for _, key in column.values())

    def all_keys(self) -> set[str]:
        return self._uris(self._replica)

    # -- statistics -----------------------------------------------------------------

    def size_bytes(self) -> int:
        """Replica + columns footprint (the Tuple column of Table 3).
        Keys are 8-byte catalog ids plus the keyset's compressed id
        set; the URI strings live once, in the shared dictionary."""
        replica = self._ids.size_bytes()
        for component in self._replica.values():
            replica += 16  # id + component header
            if not component.is_empty:
                for attribute, value in component.as_dict().items():
                    replica += len(attribute.encode("utf-8")) + 4
                    if isinstance(value, str):
                        replica += len(value.encode("utf-8", "replace")) + 4
                    else:
                        replica += 8
        columns = sum(c.size_bytes() for c in self._columns.values())
        return replica + columns

    def stats(self) -> "IndexStats":
        """The shared :class:`~repro.obs.IndexStats` shape: entries are
        replicated tuples; the column count rides in ``detail``."""
        from ..obs import IndexStats
        return IndexStats(
            name="tuple",
            entries=len(self._replica),
            bytes_estimate=self.size_bytes(),
            detail={"attributes": len(self._columns)},
        )
