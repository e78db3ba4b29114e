"""Tests for the relational instantiation (Table 1)."""

from repro.core.classes import BUILTIN_REGISTRY
from repro.core.components import Schema
from repro.datamodel.relational import (
    database_to_view,
    relation_to_view,
    tuple_to_view,
)

SCHEMA = Schema(["name", "dept"])
ROWS = [("alice", "db"), ("bob", "os"), ("carol", "db")]


class TestTupleView:
    def test_components(self):
        view = tuple_to_view(SCHEMA, ("alice", "db"))
        assert view.name == ""
        assert view.tuple_component["name"] == "alice"
        assert view.content.is_empty
        assert view.group.is_empty

    def test_conforms(self):
        view = tuple_to_view(SCHEMA, ("alice", "db"))
        assert BUILTIN_REGISTRY.conforms(view)


class TestRelationView:
    def test_members_are_tuple_views(self):
        relation = relation_to_view("emp", SCHEMA, ROWS)
        members = list(relation.group)
        assert len(members) == 3
        assert all(m.class_name == "tuple" for m in members)

    def test_shared_schema(self):
        relation = relation_to_view("emp", SCHEMA, ROWS)
        schemas = {m.tuple_component.schema for m in relation.group}
        assert schemas == {SCHEMA}

    def test_conforms(self):
        relation = relation_to_view("emp", SCHEMA, ROWS)
        assert BUILTIN_REGISTRY.conforms(relation)

    def test_member_ids_derived(self):
        relation = relation_to_view("emp", SCHEMA, ROWS)
        for member in relation.group:
            assert member.view_id.path.startswith("emp#")


class TestDatabaseView:
    def test_holds_relations(self):
        emp = relation_to_view("emp", SCHEMA, ROWS)
        db = database_to_view("company", [emp])
        assert [r.name for r in db.group] == ["emp"]
        assert db.class_name == "reldb"

    def test_conforms(self):
        emp = relation_to_view("emp", SCHEMA, ROWS)
        db = database_to_view("company", [emp])
        assert BUILTIN_REGISTRY.conforms(db)

