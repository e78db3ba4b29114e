"""Typed WAL records for every catalog/index/replica mutation.

Each record captures the *post-state* of one structure for one view —
not the operation's inputs — so replay is deterministic regardless of
how lazily the live path computed its components. A record's ``apply``
re-issues the mutation through the same structure call the live path
used (``catalog.register``, ``name_index.add``, ``tuple_index.add``,
``IndexSet.index_content_raw``, ``group_replica.add_group``), so the
replayed RVM is byte-for-byte the state the live RVM held after the
logged mutation, including re-add-replaces semantics and net-input
accounting.

One logical mutation (indexing one resource view) emits one record per
structure it touched; the capture helpers bundle them
into a single list, which the WAL frames as one commit unit — recovery
applies the whole view or none of it.

Wire format: plain JSON dicts tagged with ``"t"``::

    {"t": "cat",  "uri": ..., "name": ..., "class": ..., "kind": ...,
     "size": ..., "children": ...}
    {"t": "name", "uri": ..., "name": ...}
    {"t": "tup",  "uri": ..., "values": {...}}          # ISO-tagged dts
    {"t": "txt",  "uri": ..., "raw": ...}
    {"t": "grp",  "uri": ..., "set": [...], "seq": [...]}
    {"t": "del",  "uri": ...}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from ..core.components import GroupComponent, TupleComponent, ViewSequence
from ..core.errors import DurabilityError
from ..core.identity import ViewId
from ..core.resource_view import ResourceView
from ..rvm.catalog import malformed_fields
from ..rvm.persistence import StubView, decode_value, encode_value

if TYPE_CHECKING:  # pragma: no cover
    from ..rvm.manager import ResourceViewManager

#: A ``cat`` payload's keys, in the order ``malformed_fields`` checks.
_PAYLOAD_KEYS = ("uri", "name", "class", "kind", "size", "children")


@dataclass(frozen=True, slots=True)
class CatalogUpsert:
    """One row registered (or re-registered) in the RV catalog."""

    TAG: ClassVar[str] = "cat"

    uri: str
    name: str
    class_name: str
    kind: str
    size: int
    child_count: int

    def payload(self) -> dict:
        return {"t": self.TAG, "uri": self.uri, "name": self.name,
                "class": self.class_name, "kind": self.kind,
                "size": self.size, "children": self.child_count}

    @classmethod
    def from_payload(cls, payload: dict) -> "CatalogUpsert":
        bad = malformed_fields(payload, _PAYLOAD_KEYS)
        if bad:
            raise DurabilityError(f"malformed WAL catalog record: "
                                  f"bad {', '.join(bad)} in {payload!r}")
        return cls(uri=payload["uri"], name=payload["name"],
                   class_name=payload["class"], kind=payload["kind"],
                   size=payload["size"], child_count=payload["children"])

    def apply(self, rvm: "ResourceViewManager") -> None:
        stub = ResourceView(self.name, class_name=self.class_name or None,
                            view_id=ViewId.parse(self.uri))
        rvm.catalog.register(stub, kind=self.kind, size=self.size,
                             child_count=self.child_count)


@dataclass(frozen=True, slots=True)
class NameIndexPut:
    """One name component (re)indexed in the Name Index & Replica."""

    TAG: ClassVar[str] = "name"

    uri: str
    name: str

    def payload(self) -> dict:
        return {"t": self.TAG, "uri": self.uri, "name": self.name}

    @classmethod
    def from_payload(cls, payload: dict) -> "NameIndexPut":
        return cls(uri=payload["uri"], name=payload["name"])

    def apply(self, rvm: "ResourceViewManager") -> None:
        rvm.indexes.name_index.add(self.uri, self.name)


@dataclass(frozen=True, slots=True)
class TupleIndexPut:
    """One tuple component (re)replicated in the Tuple Index & Replica."""

    TAG: ClassVar[str] = "tup"

    uri: str
    values: dict

    def payload(self) -> dict:
        return {"t": self.TAG, "uri": self.uri,
                "values": {k: encode_value(v)
                           for k, v in self.values.items()}}

    @classmethod
    def from_payload(cls, payload: dict) -> "TupleIndexPut":
        return cls(uri=payload["uri"],
                   values={k: decode_value(v)
                           for k, v in payload["values"].items()})

    def apply(self, rvm: "ResourceViewManager") -> None:
        component = (TupleComponent.from_dict(self.values) if self.values
                     else TupleComponent.empty())
        rvm.indexes.tuple_index.add(self.uri, component)


@dataclass(frozen=True, slots=True)
class ContentIndexPut:
    """One view's raw content text, as examined by the content path.

    The content index stores postings, not text, so the raw text must
    travel in the log; replay re-tokenizes it through
    :meth:`~repro.rvm.indexes.IndexSet.index_content_raw`, which also
    redoes the text sniffing and net-input accounting.
    """

    TAG: ClassVar[str] = "txt"

    uri: str
    raw: str

    def payload(self) -> dict:
        return {"t": self.TAG, "uri": self.uri, "raw": self.raw}

    @classmethod
    def from_payload(cls, payload: dict) -> "ContentIndexPut":
        return cls(uri=payload["uri"], raw=payload["raw"])

    def apply(self, rvm: "ResourceViewManager") -> None:
        rvm.indexes.index_content_raw(self.uri, self.raw)


@dataclass(frozen=True, slots=True)
class GroupReplicaPut:
    """One group component (re)replicated in the Group Replica."""

    TAG: ClassVar[str] = "grp"

    uri: str
    set_part: tuple
    seq_part: tuple

    def payload(self) -> dict:
        return {"t": self.TAG, "uri": self.uri,
                "set": list(self.set_part), "seq": list(self.seq_part)}

    @classmethod
    def from_payload(cls, payload: dict) -> "GroupReplicaPut":
        return cls(uri=payload["uri"], set_part=tuple(payload["set"]),
                   seq_part=tuple(payload["seq"]))

    def apply(self, rvm: "ResourceViewManager") -> None:
        group = GroupComponent(
            set_part=ViewSequence([StubView(u) for u in self.set_part]),
            seq_part=ViewSequence([StubView(u) for u in self.seq_part]),
        )
        rvm.indexes.group_replica.add_group(ViewId.parse(self.uri), group)


@dataclass(frozen=True, slots=True)
class ViewDelete:
    """One view unregistered from the catalog and every structure."""

    TAG: ClassVar[str] = "del"

    uri: str

    def payload(self) -> dict:
        return {"t": self.TAG, "uri": self.uri}

    @classmethod
    def from_payload(cls, payload: dict) -> "ViewDelete":
        return cls(uri=payload["uri"])

    def apply(self, rvm: "ResourceViewManager") -> None:
        rvm.catalog.unregister(self.uri)
        rvm.indexes.remove_view(self.uri)


RECORD_TYPES = {record.TAG: record for record in (
    CatalogUpsert, NameIndexPut, TupleIndexPut, ContentIndexPut,
    GroupReplicaPut, ViewDelete,
)}


def decode_record(payload: dict):
    """One wire dict back into its typed record."""
    try:
        record_type = RECORD_TYPES[payload["t"]]
    except KeyError:
        raise DurabilityError(
            f"unknown WAL record type {payload.get('t')!r}"
        ) from None
    return record_type.from_payload(payload)


def apply_frame(frame: dict, rvm: "ResourceViewManager") -> int:
    """Apply one WAL commit unit (``{"r": [...]}``); returns records applied."""
    payloads = frame.get("r", ())
    for payload in payloads:
        decode_record(payload).apply(rvm)
    return len(payloads)


# ---------------------------------------------------------------------------
# capture (live-mutation → records)
# ---------------------------------------------------------------------------

def capture_view_upsert(view: ResourceView, rvm: "ResourceViewManager",
                        raw_content: str) -> list[dict]:
    """The records for one just-indexed view, read back from the RVM.

    Called at the synchronization manager's mutation point, *after* the
    catalog insert and component indexing, so every value is the state
    the structures actually hold (the group replica's own windowing of
    infinite groups included). ``raw_content`` is what
    :meth:`IndexSet.add_view` returned — single-shot content streams
    cannot be re-read, so the text is handed over rather than re-forced.
    """
    uri = view.view_id.uri
    records: list[dict] = []
    catalog_record = rvm.catalog.get(uri)
    if catalog_record is not None:
        records.append(CatalogUpsert(
            uri=uri, name=catalog_record.name,
            class_name=catalog_record.class_name,
            kind=catalog_record.kind, size=catalog_record.size,
            child_count=catalog_record.child_count,
        ).payload())
    indexes = rvm.indexes
    if uri in indexes.name_index:
        records.append(NameIndexPut(
            uri=uri, name=indexes.name_index.stored_text(uri),
        ).payload())
    component = indexes.tuple_index.tuple_of(uri)
    if component is not None:
        records.append(TupleIndexPut(
            uri=uri, values=component.as_dict(),
        ).payload())
    records.append(ContentIndexPut(uri=uri, raw=raw_content).payload())
    if uri in indexes.group_replica:
        replica = indexes.group_replica
        combined = replica.children(uri)          # set part then seq part
        sequence = replica.sequence_children(uri)
        set_part = combined[:len(combined) - len(sequence)]
        records.append(GroupReplicaPut(
            uri=uri, set_part=set_part, seq_part=sequence,
        ).payload())
    return records


def capture_view_delete(uri: str) -> list[dict]:
    """The single-record commit unit for one unregistered view."""
    return [ViewDelete(uri=uri).payload()]
