"""Relational data in iDM (Table 1 of the paper).

* one tuple → a ``tuple`` view: only the tuple component is non-empty;
* a relation → a ``relation`` view: named, with one tuple view per row
  in the group set ``S``;
* a database → a ``reldb`` view: named, with one relation view per
  relation in ``S``.

The instantiations take plain schemas and rows.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..core.components import Schema, TupleComponent
from ..core.identity import ViewId
from ..core.resource_view import ResourceView


def tuple_to_view(schema: Schema, values: Sequence[Any], *,
                  view_id: ViewId | None = None) -> ResourceView:
    """One relational tuple as a ``tuple`` view."""
    return ResourceView(
        tuple_component=TupleComponent(schema, values),
        class_name="tuple",
        view_id=view_id,
    )


def relation_to_view(name: str, schema: Schema,
                     rows: Iterable[Sequence[Any]], *,
                     view_id: ViewId | None = None) -> ResourceView:
    """A relation as a ``relation`` view over ``tuple`` views.

    The schema ``W_R`` is shared by all tuples of the relation — iDM
    carries it per tuple component (Definition 1), and the shared
    structure is what the ``relation`` class expresses.
    """
    base_id = view_id if view_id is not None else ViewId("rel", name)
    members = [
        tuple_to_view(schema, row, view_id=base_id.child(f"t{index}"))
        for index, row in enumerate(rows)
    ]
    return ResourceView(
        name=name,
        group=members,
        class_name="relation",
        view_id=base_id,
    )


def database_to_view(name: str, relations: Iterable[ResourceView], *,
                     view_id: ViewId | None = None) -> ResourceView:
    """A relational database as a ``reldb`` view over relation views."""
    return ResourceView(
        name=name,
        group=list(relations),
        class_name="reldb",
        view_id=view_id if view_id is not None else ViewId("rel", f"db/{name}"),
    )

