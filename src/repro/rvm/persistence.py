"""Saving and loading the RVM's state.

The 2006 prototype kept its catalog in Derby and its full-text indexes
in Lucene — both durable on disk, so iMeMex did not re-scan the whole
dataspace on every start. This module gives the reproduction the same
property: :func:`save_state` serializes the catalog and all four
index/replica structures to a directory of JSON-lines files, and
:func:`load_state` restores them into a fresh
:class:`~repro.rvm.manager.ResourceViewManager`.

A restored RVM answers every index-backed query immediately; live view
objects are *not* persisted (they are lazy handles into data sources) —
they re-resolve through the plugins on demand, exactly like after a
restart of the original system.

The format is deliberately plain: one ``manifest.json`` plus one
``.jsonl`` file per structure, with ISO-tagged datetimes. It is the
checkpoint's snapshot format, not a WAL — :mod:`repro.durability`
layers the WAL, checkpoints and crash recovery on top of it, and is
the one caller of both functions.

Catalog ids are **derived state** and never appear in a snapshot: every
structure serializes URIs, and the load path re-interns them through
the catalog and the index ``add`` methods, deterministically rebuilding
the id-keyed keysets (DESIGN.md §4j). A snapshot written before the
keyset refactor therefore loads unchanged, and two processes restoring
the same snapshot may assign different ids without disagreeing on any
query answer.

Snapshots are *crash-safe*: :func:`save_state` writes into a sibling
temporary directory, fsyncs every file, and atomically renames it into
place, so a crash mid-snapshot can never leave a half-written state
that :func:`load_state` would partially apply — the target either
holds the complete previous snapshot or the complete new one.
"""

from __future__ import annotations

import json
import os
import shutil
from datetime import date, datetime
from pathlib import Path
from typing import Any

from ..core.components import TupleComponent
from ..core.errors import StoreError
from ..core.identity import ViewId
from ..core.resource_view import ResourceView
from .catalog import malformed_fields
from .manager import ResourceViewManager

FORMAT_VERSION = 1

#: A catalog.jsonl row's keys, in the order ``malformed_fields`` checks.
_CATALOG_KEYS = ("uri", "name", "class_name", "kind", "size", "child_count")


# ---------------------------------------------------------------------------
# value (de)serialization
# ---------------------------------------------------------------------------

def encode_value(value: Any) -> Any:
    """JSON-encode one tuple-component value (datetimes ISO-tagged)."""
    if isinstance(value, datetime):
        return {"__dt__": value.isoformat()}
    if isinstance(value, date):
        return {"__date__": value.isoformat()}
    return value


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, dict):
        if "__dt__" in value:
            return datetime.fromisoformat(value["__dt__"])
        if "__date__" in value:
            return date.fromisoformat(value["__date__"])
    return value


def _write_jsonl(path: Path, rows) -> int:
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
            count += 1
        handle.flush()
        os.fsync(handle.fileno())
    return count


def _read_jsonl(path: Path):
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------

def save_state(rvm: ResourceViewManager, directory: str | Path, *,
               extra: dict | None = None) -> dict:
    """Serialize the RVM's catalog and indexes under ``directory``.

    The snapshot is staged in a temporary sibling directory and
    atomically renamed into place, replacing any previous snapshot at
    ``directory``. ``extra`` keys are merged into the manifest (the
    checkpointer records the WAL position this way). Returns the
    manifest that was written.
    """
    target = Path(directory)
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = target.parent / f"{target.name}.tmp-{os.getpid()}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        manifest = _write_snapshot(rvm, staging, extra=extra)
        _fsync_dir(staging)
        _replace_directory(staging, target)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return manifest


def _replace_directory(staging: Path, target: Path) -> None:
    """Atomically swap ``staging`` into ``target``'s place.

    ``os.replace`` cannot overwrite a non-empty directory, so an
    existing snapshot is first moved aside and removed only after the
    new one is in place — a crash at any point leaves either the old
    or the new snapshot complete at ``target`` (or, in the narrow
    window between the two renames, the old one intact aside, which
    recovery treats as "no snapshot at the primary path" and the
    checkpoint pointer never references).
    """
    doomed = None
    if target.exists():
        doomed = target.parent / f"{target.name}.old-{os.getpid()}"
        if doomed.exists():
            shutil.rmtree(doomed)
        os.replace(target, doomed)
    os.replace(staging, target)
    _fsync_dir(target.parent)
    if doomed is not None:
        shutil.rmtree(doomed, ignore_errors=True)


def _write_snapshot(rvm: ResourceViewManager, base: Path, *,
                    extra: dict | None) -> dict:
    catalog_rows = (
        {
            "uri": record.uri, "name": record.name,
            "class_name": record.class_name, "authority": record.authority,
            "kind": record.kind, "size": record.size,
            "child_count": record.child_count,
        }
        for record in rvm.catalog.all_records()
    )
    counts = {"catalog": _write_jsonl(base / "catalog.jsonl", catalog_rows)}

    indexes = rvm.indexes
    counts["names"] = _write_jsonl(
        base / "names.jsonl",
        ({"uri": uri, "name": name}
         for uri, name in indexes.name_index.stored_items()),
    )
    # the content index is NOT a replica; persist its postings directly
    content = indexes.content_index
    content_rows = (
        {
            "term": term,
            "postings": [[content.key_of(doc), positions]
                         for doc, positions in content.postings(term)],
        }
        for term in sorted(content.terms_matching(lambda t: True))
    )
    counts["content_terms"] = _write_jsonl(base / "content.jsonl",
                                           content_rows)
    counts["content_docs"] = _write_jsonl(
        base / "content_docs.jsonl",
        ({"uri": content.key_of(doc), "length": content.doc_length(doc)}
         for doc in content.all_doc_ids()),
    )

    tuple_rows = []
    for uri in sorted(indexes.tuple_index.all_keys()):
        component = indexes.tuple_index.tuple_of(uri)
        assert component is not None
        tuple_rows.append({
            "uri": uri,
            "values": {k: encode_value(v)
                       for k, v in component.as_dict().items()},
        })
    counts["tuples"] = _write_jsonl(base / "tuples.jsonl", iter(tuple_rows))

    replica = indexes.group_replica
    group_rows = (
        {
            "uri": uri,
            "children": list(replica.children(uri)),
            "sequence": list(replica.sequence_children(uri)),
        }
        for uri in sorted(replica.uris())
    )
    counts["groups"] = _write_jsonl(base / "groups.jsonl", group_rows)

    manifest = {
        "format_version": FORMAT_VERSION,
        "net_input_bytes": indexes.net_input_bytes,
        "counts": counts,
    }
    if extra:
        manifest.update(extra)
    # the manifest is written last: a snapshot without one is invisible
    # to load_state, so a torn write can never be half-applied
    manifest_path = base / "manifest.json"
    with manifest_path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=2))
        handle.flush()
        os.fsync(handle.fileno())
    return manifest


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------

def rvm_is_empty(rvm: ResourceViewManager) -> bool:
    """True when no structure of ``rvm`` holds any state yet."""
    indexes = rvm.indexes
    return (len(rvm.catalog) == 0
            and len(indexes.name_index) == 0
            and len(indexes.content_index) == 0
            and not indexes.tuple_index.all_keys()
            and len(indexes.group_replica) == 0)


def load_state(rvm: ResourceViewManager, directory: str | Path) -> dict:
    """Restore a snapshot written by :func:`save_state` into ``rvm``.

    The RVM must be freshly constructed: loading into a used RVM would
    merge the two states, so a non-empty one is refused. Returns the
    manifest.
    """
    base = Path(directory)
    manifest_path = base / "manifest.json"
    if not manifest_path.exists():
        raise StoreError(f"no saved state at {base}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != FORMAT_VERSION:
        raise StoreError(
            f"unsupported snapshot version {manifest.get('format_version')}"
        )
    if not rvm_is_empty(rvm):
        raise StoreError(
            f"refusing to load snapshot {base} into a non-empty RVM "
            f"({len(rvm.catalog)} catalog entries): loading would merge "
            f"the two states"
        )

    for row in _read_jsonl(base / "catalog.jsonl"):
        bad = malformed_fields(row, _CATALOG_KEYS)
        if bad:
            raise StoreError(f"malformed catalog row in {base}: "
                             f"bad {', '.join(bad)} in {row!r}")
        view = ResourceView(
            row["name"], class_name=row["class_name"] or None,
            view_id=ViewId.parse(row["uri"]),
        )
        rvm.catalog.register(view, kind=row["kind"], size=row["size"],
                             child_count=row["child_count"])

    for row in _read_jsonl(base / "names.jsonl"):
        rvm.indexes.name_index.add(row["uri"], row["name"])

    rvm.indexes.content_index.restore(
        {row["uri"]: row["length"]
         for row in _read_jsonl(base / "content_docs.jsonl")},
        ((row["term"], row["postings"])
         for row in _read_jsonl(base / "content.jsonl")),
    )

    for row in _read_jsonl(base / "tuples.jsonl"):
        values = {k: decode_value(v) for k, v in row["values"].items()}
        component = (TupleComponent.from_dict(values) if values
                     else TupleComponent.empty())
        rvm.indexes.tuple_index.add(row["uri"], component)

    replica = rvm.indexes.group_replica
    for row in _read_jsonl(base / "groups.jsonl"):
        children = [StubView(uri) for uri in row["children"]
                    if uri not in row["sequence"]]
        sequence = [StubView(uri) for uri in row["sequence"]]
        from ..core.components import GroupComponent, ViewSequence
        replica.add_group(
            ViewId.parse(row["uri"]),
            GroupComponent(set_part=ViewSequence(children),
                           seq_part=ViewSequence(sequence)),
        )

    rvm.indexes._net_input_bytes = manifest.get("net_input_bytes", 0)  # noqa: SLF001
    return manifest


class StubView:
    """A minimal view-shaped carrier of an id, for replica restoration."""

    __slots__ = ("view_id",)

    def __init__(self, uri: str):
        self.view_id = ViewId.parse(uri)
