"""Property-based tests: the store table against a dict model."""

from hypothesis import given, settings, strategies as st

from repro.core.errors import TableError
from repro.store import Column, Database, INT, TEXT

_KEYS = st.text(alphabet="abcdef", min_size=1, max_size=3)
_VALUES = st.integers(-50, 50)

_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _KEYS, _VALUES),
        st.tuples(st.just("update"), _KEYS, _VALUES),
        st.tuples(st.just("delete"), _KEYS, _VALUES),
    ),
    max_size=120,
)


def _apply(operations):
    db = Database()
    table = db.create_table(
        "t", [Column("k", TEXT), Column("v", INT)], primary_key="k"
    )
    model: dict[str, int] = {}
    for op, key, value in operations:
        if op == "insert":
            if key in model:
                try:
                    table.insert({"k": key, "v": value})
                    raise AssertionError("duplicate PK accepted")
                except TableError:
                    pass
            else:
                table.insert({"k": key, "v": value})
                model[key] = value
        elif op == "update":
            updated = table.update(key, {"v": value})
            assert updated == (key in model)
            if key in model:
                model[key] = value
        else:
            deleted = table.delete(key)
            assert deleted == (key in model)
            model.pop(key, None)
    return table, model


class TestAgainstModel:
    @given(_OPERATIONS)
    @settings(max_examples=100, deadline=None)
    def test_point_lookups_match(self, operations):
        table, model = _apply(operations)
        assert len(table) == len(model)
        for key in "abcdef":
            row = table.get(key)
            if key in model:
                assert row == {"k": key, "v": model[key]}
            else:
                assert row is None

    @given(_OPERATIONS)
    @settings(max_examples=100, deadline=None)
    def test_scan_returns_live_rows_only(self, operations):
        table, model = _apply(operations)
        scanned = {row["k"]: row["v"] for row in table.scan()}
        assert scanned == model
