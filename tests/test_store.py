"""Tests for the embedded relational store (the Derby substitute)."""

import pytest

from repro.core.errors import TableError
from repro.store import (
    BOOL,
    Column,
    Database,
    INT,
    TEXT,
    TableSchema,
)
from repro.store.types import DATE, type_by_name


class TestTypes:
    def test_int_accepts(self):
        INT.validate(5, nullable=True)

    def test_int_rejects_string(self):
        with pytest.raises(TableError):
            INT.validate("5", nullable=True)

    def test_int_rejects_bool(self):
        with pytest.raises(TableError):
            INT.validate(True, nullable=True)

    def test_null_respected(self):
        TEXT.validate(None, nullable=True)
        with pytest.raises(TableError):
            TEXT.validate(None, nullable=False)

    def test_size_of_text_varies(self):
        assert TEXT.size_of("abcd") > TEXT.size_of("a")

    def test_type_by_name(self):
        assert type_by_name("int") is INT
        with pytest.raises(TableError):
            type_by_name("void")


class TestSchema:
    def test_primary_key_implies_not_null(self):
        schema = TableSchema([Column("id", TEXT)], primary_key="id")
        assert not schema.columns[0].nullable

    def test_unknown_pk_column_rejected(self):
        with pytest.raises(TableError):
            TableSchema([Column("a", INT)], primary_key="b")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(TableError):
            TableSchema([Column("a", INT), Column("a", TEXT)])

    def test_row_from_dict_fills_nulls(self):
        schema = TableSchema([Column("a", INT), Column("b", TEXT)])
        assert schema.row_from_dict({"a": 1}) == (1, None)

    def test_row_from_dict_rejects_unknown(self):
        schema = TableSchema([Column("a", INT)])
        with pytest.raises(TableError):
            schema.row_from_dict({"zz": 1})


class TestTable:
    @pytest.fixture()
    def table(self):
        db = Database()
        table = db.create_table(
            "views",
            [Column("uri", TEXT), Column("size", INT),
             Column("flag", BOOL)],
            primary_key="uri",
        )
        return table

    def test_insert_and_get(self, table):
        table.insert({"uri": "a", "size": 1, "flag": True})
        assert table.get("a")["size"] == 1

    def test_duplicate_pk_rejected(self, table):
        table.insert({"uri": "a", "size": 1})
        with pytest.raises(TableError):
            table.insert({"uri": "a", "size": 2})

    def test_update(self, table):
        table.insert({"uri": "a", "size": 1})
        assert table.update("a", {"size": 99})
        assert table.get("a")["size"] == 99

    def test_update_missing_false(self, table):
        assert not table.update("ghost", {"size": 1})

    def test_delete(self, table):
        table.insert({"uri": "a", "size": 1})
        assert table.delete("a")
        assert table.get("a") is None
        assert len(table) == 0

    def test_delete_where(self, table):
        for i in range(10):
            table.insert({"uri": f"u{i}", "size": i})
        removed = table.delete_where(lambda r: r["size"] % 2 == 0)
        assert removed == 5
        assert len(table) == 5

    def test_scan_with_predicate(self, table):
        for i in range(5):
            table.insert({"uri": f"u{i}", "size": i})
        big = list(table.scan(lambda r: r["size"] >= 3))
        assert len(big) == 2

    def test_wrong_type_rejected(self, table):
        with pytest.raises(TableError):
            table.insert({"uri": "a", "size": "big"})


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        db.create_table("t", [Column("a", INT)])
        assert "t" in db
        assert db.table("t").name == "t"

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("t", [Column("a", INT)])
        with pytest.raises(TableError):
            db.create_table("t", [Column("a", INT)])

    def test_drop(self):
        db = Database()
        db.create_table("t", [Column("a", INT)])
        db.drop_table("t")
        assert "t" not in db

    def test_size_bytes_sums_tables(self):
        db = Database()
        t = db.create_table("t", [Column("a", TEXT)], primary_key="a")
        empty = db.size_bytes()
        for i in range(50):
            t.insert({"a": f"value-{i}"})
        assert db.size_bytes() > empty
