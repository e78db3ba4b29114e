"""The Resource View Catalog.

"All resource views managed are registered in that catalog." iMeMex
implements it on Apache Derby; what we reproduce is Derby's *size
report* (Table 3), not Derby, so the records live in a plain dict keyed
by URI and :meth:`ResourceViewCatalog.size_bytes` accounts for them as
rows of a heap table would. Name, class and authority are each indexed
once, as buckets of catalog-id :class:`~repro.rvm.keyset.KeySet` s —
the form the query engine consumes. The distinct names are additionally
kept *ordered* (:class:`NameDictionary`), so a wildcard name test
matches values, not rows. The catalog stores *metadata only* —
components live in their replicas/indexes — and its size contributes
the "RV Catalog" column of Table 3.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator

from ..core.identity import ViewId
from ..core.resource_view import ResourceView
from .keyset import KeySet
from .uridict import global_uri_dictionary

#: A record's bytes besides its text: an 8-byte row header, 4 bytes of
#: length for each of the five text fields, 8 for each of the two int
#: fields, and a 24-byte primary-key entry.
_RECORD_FIXED_BYTES = 8 + 5 * 4 + 2 * 8 + 24

#: What a record's fields must be when they come from outside the
#: process (a checkpoint row, a WAL payload): uri, name, class and kind
#: text, size and child count ints — a bool is not an int.
_FIELD_TYPES = (str, str, str, str, int, int)


@dataclass(frozen=True, slots=True)
class CatalogRecord:
    """One registered view's catalog metadata."""

    uri: str
    name: str
    class_name: str
    authority: str
    kind: str           # "base" (from a data source) or "derived" (converter)
    size: int           # content size in bytes when known
    child_count: int

    @property
    def view_id(self) -> ViewId:
        return ViewId.parse(self.uri)

    def size_bytes(self) -> int:
        """The record as a heap-table row: the fixed bytes plus the
        UTF-8 length of each text field."""
        return _RECORD_FIXED_BYTES + sum(
            len(text.encode("utf-8", "replace"))
            for text in (self.uri, self.name, self.class_name,
                         self.authority, self.kind))


def malformed_fields(row: dict, keys: tuple[str, ...]) -> list[str]:
    """The ``keys`` of ``row`` — uri, name, class, kind, size and child
    count, in that order — that are missing or not of their type."""
    return [key for key, wanted in zip(keys, _FIELD_TYPES, strict=True)
            if type(row.get(key)) is not wanted]


#: Joins the names of :attr:`NameDictionary._text`. Any character would
#: do — a name containing it, like a literal found across two names,
#: only nominates a candidate the caller's match then rejects.
_NAME_SEPARATOR = "\n"

#: A literal shorter than this is not worth a ``str.find`` pass.
#: Nominating a name by ``find`` + ``bisect`` costs about four regex
#: matches, so the pass pays while the literal occurs in under a
#: quarter of the names: measured over 2 089 names, two-letter literals
#: run from 0.2x to 1.2x the cost of matching every name, single
#: letters ("e", "a") up to 2.8x.
_MIN_FIND_LITERAL = 2


class NameDictionary:
    """The distinct non-empty view names in sorted order: an immutable
    snapshot of the key set of the catalog's name buckets.

    This is the nested-ordered-set reading of the name component
    (Savinov, arXiv:0806.4749): order the *values* and hang the rows —
    the per-name id buckets — under them. A name test then examines
    each distinct value at most once, and none outside the range or the
    substring its literal text pins down.
    """

    __slots__ = ("epoch", "names", "_text", "_offsets")

    def __init__(self, epoch: int, names: list[str]):
        #: the catalog's name epoch this snapshot was sorted at
        self.epoch = epoch
        self.names = names
        #: every name in one string, and where each one starts in it
        #: (one extra entry past the end, so ``_offsets[i + 1]`` always
        #: exists)
        self._text = _NAME_SEPARATOR.join(names)
        self._offsets = [*accumulate((len(name) + 1 for name in names),
                                    initial=0)]

    def with_prefix(self, prefix: str) -> list[str]:
        """The names starting with ``prefix``: one contiguous range of
        the order, both ends bisected."""
        names = self.names
        width = len(prefix)
        start = bisect_left(names, prefix)
        stop = bisect_right(names, prefix, start,
                            key=lambda name: name[:width])
        return names[start:stop]

    def containing(self, literal: str) -> Iterator[str]:
        """The names containing ``literal``, in order, found lazily by
        ``str.find`` over the concatenation. A superset: an occurrence
        that spans two names nominates the first of them."""
        find, offsets, names = self._text.find, self._offsets, self.names
        position = find(literal)
        while position >= 0:
            index = bisect_right(offsets, position) - 1
            yield names[index]
            # on to the next name: this one is already nominated
            position = find(literal, offsets[index + 1])

    def candidates(self, prefix: str, literal: str) -> Iterator[str]:
        """A superset, in name order, of the names that start with
        ``prefix`` and contain ``literal`` — the cheapest one this
        structure can enumerate. The caller's match decides."""
        if prefix:
            return iter(self.with_prefix(prefix))
        if len(literal) >= _MIN_FIND_LITERAL:
            return self.containing(literal)
        return iter(self.names)

    def size_bytes(self) -> int:
        """The concatenation, plus an offset and a pointer per name."""
        return (len(self._text.encode("utf-8", "replace"))
                + 8 * len(self._offsets) + 8 * len(self.names))


class ResourceViewCatalog:
    """The catalog records plus typed accessors."""

    def __init__(self) -> None:
        # one record per URI, in registration order: a re-registered URI
        # keeps its place, an unregistered one that comes back goes to
        # the end. That order is all_records()'s and a checkpoint's.
        self._records: dict[str, CatalogRecord] = {}
        # the secondary indexes: compressed id sets the query engine
        # consumes directly (catalog scans, name/class/authority lookups)
        # with no per-URI string work. Ids are derived state — rebuilt on
        # recovery by re-registering, never persisted.
        self._ids = KeySet()
        self._ids_by_name: dict[str, KeySet] = {}
        self._ids_by_class: dict[str, KeySet] = {}
        self._ids_by_authority: dict[str, KeySet] = {}
        # the ordered distinct names: a snapshot of _ids_by_name's key
        # set, rebuilt by the first reader after the epoch moved — the
        # write path only bumps the epoch, and only when a name bucket
        # is created or emptied (a bucket that grows or shrinks leaves
        # the set of distinct names alone)
        self._name_epoch = 0
        self._name_dictionary: NameDictionary | None = None

    # -- registration ---------------------------------------------------------

    def register(self, view: ResourceView, *, kind: str,
                 size: int = 0, child_count: int = 0) -> CatalogRecord:
        """Register (or re-register) one view."""
        record = CatalogRecord(
            uri=view.view_id.uri,
            name=view.name,
            class_name=view.class_name or "",
            authority=view.view_id.authority,
            kind=kind,
            size=size,
            child_count=child_count,
        )
        old = self._records.get(record.uri)
        self._records[record.uri] = record
        # every registered view is interned: sync, snapshot load and WAL
        # recovery all pass here, so the engine's integer batches always
        # have a dictionary entry (ids are derived state — never saved,
        # always rebuilt deterministically from the catalog)
        view_id = global_uri_dictionary().intern(record.uri)
        if old is not None:
            self._drop_from_buckets(view_id, old)
        self._ids.add(view_id)
        self._bucket(self._ids_by_name, record.name).add(view_id)
        self._bucket(self._ids_by_class, record.class_name).add(view_id)
        self._bucket(self._ids_by_authority, record.authority).add(view_id)
        return record

    def unregister(self, view_id: ViewId | str) -> bool:
        uri = view_id if isinstance(view_id, str) else view_id.uri
        record = self._records.pop(uri, None)
        if record is None:
            return False
        interned = global_uri_dictionary().id_of(uri)
        if interned is not None:
            self._ids.discard(interned)
            self._drop_from_buckets(interned, record)
        return True

    def _bucket(self, buckets: dict[str, KeySet], key: str) -> KeySet:
        keyset = buckets.get(key)
        if keyset is None:
            keyset = buckets[key] = KeySet()
            if buckets is self._ids_by_name:
                self._name_epoch += 1
        return keyset

    def _drop_from_buckets(self, view_id: int, record: CatalogRecord) -> None:
        for buckets, key in ((self._ids_by_name, record.name),
                             (self._ids_by_class, record.class_name),
                             (self._ids_by_authority, record.authority)):
            keyset = buckets.get(key)
            if keyset is not None:
                keyset.discard(view_id)
                if not keyset:
                    del buckets[key]
                    if buckets is self._ids_by_name:
                        self._name_epoch += 1

    # -- lookups -----------------------------------------------------------------

    def __contains__(self, view_id: object) -> bool:
        uri = view_id.uri if isinstance(view_id, ViewId) else view_id
        return uri in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, view_id: ViewId | str) -> CatalogRecord | None:
        uri = view_id if isinstance(view_id, str) else view_id.uri
        return self._records.get(uri)

    def all_records(self) -> Iterator[CatalogRecord]:
        """Every record in registration order, from a snapshot taken in
        one interpreter-lock-held call (a register beside the reader
        cannot resize the dict under it)."""
        return iter(list(self._records.values()))

    def all_uris(self) -> list[str]:
        """Every registered URI in dictionary sort-key order.

        The order is plain lexicographic on the URI — URIs are unique,
        so no tie-break is needed — which is exactly the order of the
        dictionary's sort keys. Catalog scans can therefore bind their
        key column straight off this list without re-sorting.
        """
        return sorted(self._records)

    # id-space lookups (the engine's zero-copy path) --------------------------

    def all_ids(self) -> KeySet:
        return self._ids.copy()

    def ids_by_name(self, name: str) -> KeySet:
        keyset = self._ids_by_name.get(name)
        return keyset.copy() if keyset is not None else KeySet()

    def name_dictionary(self) -> NameDictionary:
        """The current :class:`NameDictionary`, sorted now if a name
        bucket was created or emptied since the last one. Safe beside
        the one writer: the epoch is read before the keys (a snapshot
        that raced a write carries the older epoch and is replaced by
        the next reader), and ``sorted(dict)`` is one
        interpreter-lock-held call, so it never sees the dict resize."""
        snapshot = self._name_dictionary
        epoch = self._name_epoch
        if snapshot is None or snapshot.epoch != epoch:
            names = sorted(self._ids_by_name)
            if names and not names[0]:
                del names[0]  # unnamed views match no name test
            snapshot = self._name_dictionary = NameDictionary(epoch, names)
        return snapshot

    def ids_of_names(self, names: Iterable[str]) -> list[int]:
        """The catalog ids filed under ``names``, bucket after bucket.
        A name whose bucket emptied since the caller's dictionary
        snapshot contributes nothing."""
        out: list[int] = []
        for bucket in map(self._ids_by_name.get, names):
            if bucket is not None:
                out += bucket.to_list()
        return out

    def views_named(self, names: Iterable[str]) -> int:
        """How many views are filed under ``names`` (no id is read)."""
        return sum(len(bucket)
                   for bucket in map(self._ids_by_name.get, names)
                   if bucket is not None)

    def ids_by_class(self, class_name: str) -> KeySet:
        keyset = self._ids_by_class.get(class_name)
        return keyset.copy() if keyset is not None else KeySet()

    def ids_by_authority(self, authority: str) -> KeySet:
        keyset = self._ids_by_authority.get(authority)
        return keyset.copy() if keyset is not None else KeySet()

    # -- statistics -----------------------------------------------------------------

    def size_bytes(self) -> int:
        """Table 3's "RV Catalog": the records, the keysets and the name
        dictionary."""
        records = sum(record.size_bytes() for record in self.all_records())
        keysets = self._ids.size_bytes() + sum(
            ks.size_bytes()
            for buckets in (self._ids_by_name, self._ids_by_class,
                            self._ids_by_authority)
            for ks in buckets.values()
        )
        return records + keysets + self.name_dictionary().size_bytes()

    def counts_by_authority(self) -> dict[str, int]:
        return {authority: len(keyset)
                for authority, keyset in self._ids_by_authority.items()}

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.all_records():
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts
