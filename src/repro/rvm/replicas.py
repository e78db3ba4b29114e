"""Component replicas.

"A Replica creates a copy of a component inside the RVM. For instance,
one strategy could be to replicate the group components of all resource
views ... queries referring to the group component can then be executed
exploiting the replicas only", avoiding lookups at the data source.

:class:`GroupReplica` replicates group components as adjacency lists.
URIs are dictionary-encoded through the process-wide URI dictionary, so
a node here carries the same dense **catalog id** as the same view in
the catalog keysets and the inverted index (the keyset refactor,
DESIGN.md §4j — the replica's private OID space is gone). Only forward
edges are kept — the prototype's forward expansion reads nothing else —
so a node costs 16 bytes and an edge 8, which is how the replica is,
as in the paper (3.5 of 172.5 MB), the smallest structure of Table 3.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Collection, Iterator

from ..core.components import GroupComponent
from ..core.identity import ViewId
from ..core.resource_view import ResourceView
from .keyset import KeySet
from .uridict import global_uri_dictionary


class GroupReplica:
    """In-memory adjacency replica of group components."""

    def __init__(self, *, infinite_window: int = 256):
        #: how many members of an infinite group part are replicated
        self.infinite_window = infinite_window
        self._dictionary = global_uri_dictionary()
        self._set_children: dict[int, tuple[int, ...]] = {}
        self._seq_children: dict[int, tuple[int, ...]] = {}

    # -- interning ---------------------------------------------------------------

    def _oid(self, view_id: ViewId | str) -> int | None:
        uri = view_id if isinstance(view_id, str) else view_id.uri
        return self._dictionary.id_of(uri)

    # -- writes -----------------------------------------------------------------

    def add(self, view: ResourceView) -> None:
        self.add_group(view.view_id, view.group)

    def add_group(self, view_id: ViewId, group: GroupComponent) -> None:
        intern = self._dictionary.intern
        oid = intern(view_id.uri)
        if oid in self._set_children:
            self.remove(view_id.uri)
        set_part = (group.set_part.items() if group.set_part.is_finite
                    else group.set_part.take(self.infinite_window))
        seq_part = (group.seq_part.items() if group.seq_part.is_finite
                    else group.seq_part.take(self.infinite_window))
        self._set_children[oid] = tuple(
            intern(v.view_id.uri) for v in set_part)
        self._seq_children[oid] = tuple(
            intern(v.view_id.uri) for v in seq_part)

    def remove(self, view_id: ViewId | str) -> bool:
        oid = self._oid(view_id)
        if oid is None or oid not in self._set_children:
            return False
        del self._set_children[oid]
        del self._seq_children[oid]
        return True

    # -- reads --------------------------------------------------------------------

    def __contains__(self, view_id: object) -> bool:
        uri = view_id.uri if isinstance(view_id, ViewId) else view_id
        if not isinstance(uri, str):
            return False
        oid = self._dictionary.id_of(uri)
        return oid is not None and oid in self._set_children

    def __len__(self) -> int:
        return len(self._set_children)

    # id-space reads (the engine's expansion path) ------------------------------

    def children_ids(self, oid: int) -> tuple[int, ...]:
        """Directly related catalog ids (set part then sequence part)."""
        return (self._set_children.get(oid, ())
                + self._seq_children.get(oid, ()))

    def children_ids_of_many(self, oids: Collection[int]) -> list[int]:
        """The children of a whole frontier gathered into one list
        (duplicates kept, no per-node grouping) — the bulk read the
        engine's frontier-at-a-time expansion dedupes with set algebra."""
        nothing = repeat(())
        return [
            *chain.from_iterable(map(self._set_children.get, oids, nothing)),
            *chain.from_iterable(map(self._seq_children.get, oids, nothing)),
        ]

    def descendant_ids(self, oid: int, *,
                       max_depth: int | None = None) -> KeySet:
        """Forward expansion entirely in id space."""
        seen = KeySet()
        if oid not in self._set_children and oid not in self._seq_children:
            return seen
        frontier = [(oid, 0)]
        while frontier:
            node, depth = frontier.pop()
            if max_depth is not None and depth >= max_depth:
                continue
            for child in (self._set_children.get(node, ())
                          + self._seq_children.get(node, ())):
                if seen.add(child):
                    frontier.append((child, depth + 1))
        return seen

    # URI-space reads (sync, durability records, external callers) --------------

    def children(self, view_id: ViewId | str) -> tuple[str, ...]:
        """All directly related URIs (set part then sequence part)."""
        oid = self._oid(view_id)
        if oid is None:
            return ()
        uri_of = self._dictionary.uri_of
        return tuple(uri_of(o) for o in self.children_ids(oid))

    def sequence_children(self, view_id: ViewId | str) -> tuple[str, ...]:
        oid = self._oid(view_id)
        if oid is None:
            return ()
        uri_of = self._dictionary.uri_of
        return tuple(uri_of(o) for o in self._seq_children.get(oid, ()))

    def descendants(self, view_id: ViewId | str, *,
                    max_depth: int | None = None) -> set[str]:
        """Forward expansion over the replica (no data-source access)."""
        start = self._oid(view_id)
        if start is None:
            return set()
        # `start` stays in the result only when an edge leads back to it
        # (a view on a cycle is indirectly related to itself).
        seen = self.descendant_ids(start, max_depth=max_depth)
        uri_of = self._dictionary.uri_of
        return {uri_of(o) for o in seen}

    def uris(self) -> Iterator[str]:
        uri_of = self._dictionary.uri_of
        return (uri_of(o) for o in self._set_children)

    # -- statistics -----------------------------------------------------------------

    def edge_count(self) -> int:
        return sum(len(s) + len(q) for s, q in
                   zip(self._set_children.values(),
                       self._seq_children.values()))

    def size_bytes(self) -> int:
        """Replica footprint: 8-byte ids per edge plus node headers.

        The URI↔id dictionary is the catalog's (every URI here is also
        registered there), so it is not double-counted; this mirrors how
        the prototype's group replica stays the smallest structure in
        the paper's Table 3.
        """
        return 16 * len(self._set_children) + 8 * self.edge_count()
