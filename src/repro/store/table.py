"""Heap tables with primary keys.

A :class:`Table` stores rows in insertion order (a heap of row slots)
and enforces primary-key uniqueness through an internal index. Reads go
through :meth:`scan` (full scan with an optional predicate) and
:meth:`get` (primary key point lookup).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from ..core.errors import TableError
from .schema import TableSchema

Row = tuple[Any, ...]


class Table:
    """One table of the embedded store."""

    def __init__(self, name: str, schema: TableSchema):
        self.name = name
        self.schema = schema
        self._rows: list[Row | None] = []   # None = deleted slot
        self._live = 0
        self._primary: dict[tuple[Any, ...], int] = {}

    # -- writes -----------------------------------------------------------------

    def insert(self, values: Sequence[Any] | dict[str, Any]) -> int:
        """Insert one row; returns its row id."""
        if isinstance(values, dict):
            row = self.schema.row_from_dict(values)
        else:
            row = self.schema.validate_row(values)
        if self.schema.primary_key:
            key = self.schema.key_of(row)
            if key in self._primary:
                raise TableError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
        row_id = len(self._rows)
        self._rows.append(row)
        self._live += 1
        if self.schema.primary_key:
            self._primary[self.schema.key_of(row)] = row_id
        return row_id

    def update(self, key: Sequence[Any] | Any,
               changes: dict[str, Any]) -> bool:
        """Update the row with primary key ``key``; True when found."""
        row_id = self._row_id_for_key(key)
        if row_id is None:
            return False
        old_row = self._rows[row_id]
        assert old_row is not None
        mapping = dict(zip(self.schema.names, old_row))
        mapping.update(changes)
        new_row = self.schema.row_from_dict(mapping)
        new_key = self.schema.key_of(new_row)
        old_key = self.schema.key_of(old_row)
        if new_key != old_key and new_key in self._primary:
            raise TableError(f"duplicate primary key {new_key!r}")
        if new_key != old_key:
            del self._primary[old_key]
            self._primary[new_key] = row_id
        self._rows[row_id] = new_row
        return True

    def delete(self, key: Sequence[Any] | Any) -> bool:
        """Delete by primary key; True when the row existed."""
        row_id = self._row_id_for_key(key)
        if row_id is None:
            return False
        row = self._rows[row_id]
        assert row is not None
        del self._primary[self.schema.key_of(row)]
        self._rows[row_id] = None
        self._live -= 1
        return True

    def delete_where(self, predicate: Callable[[dict[str, Any]], bool]) -> int:
        """Delete all rows matching ``predicate``; returns the count."""
        doomed = [self.schema.key_of(row) for row in self._live_rows()
                  if predicate(dict(zip(self.schema.names, row)))]
        for key in doomed:
            self.delete(key)
        return len(doomed)

    def _row_id_for_key(self, key: Sequence[Any] | Any) -> int | None:
        if not self.schema.primary_key:
            raise TableError(f"table {self.name!r} has no primary key")
        if not isinstance(key, tuple):
            key = (key,)
        return self._primary.get(tuple(key))

    # -- reads --------------------------------------------------------------------

    def _live_rows(self) -> Iterator[Row]:
        return (row for row in self._rows if row is not None)

    def __len__(self) -> int:
        return self._live

    def get(self, key: Sequence[Any] | Any) -> dict[str, Any] | None:
        """Point lookup by primary key; returns a column→value dict."""
        row_id = self._row_id_for_key(key)
        if row_id is None:
            return None
        row = self._rows[row_id]
        assert row is not None
        return dict(zip(self.schema.names, row))

    def scan(self, predicate: Callable[[dict[str, Any]], bool] | None = None,
             ) -> Iterator[dict[str, Any]]:
        """Full scan, optionally filtered."""
        for row in self._live_rows():
            record = dict(zip(self.schema.names, row))
            if predicate is None or predicate(record):
                yield record

    # -- statistics ------------------------------------------------------------------

    def size_bytes(self) -> int:
        """Approximate table size: row data + primary key."""
        data = sum(self.schema.row_size(row) for row in self._live_rows())
        primary = 24 * len(self._primary)
        return data + primary
