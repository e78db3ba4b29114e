"""The process-wide URI dictionary: dense integer ids for view URIs.

The batched engine (PR 4) moved ``Batch`` vectors of URI *strings*
through its operators: every sorted-merge compared strings and every
seen-set hashed them — the dominant cost on the engine benchmarks,
because view URIs share long prefixes (``imap://inbox/…``) and each
comparison re-walks them. Real columnar engines separate *identity*
from *representation*: operators move opaque dense integers, and only
the result boundary materializes surface syntax.

Two mappings live here:

* **ids** — ``intern(uri)`` assigns a dense, append-only ``int`` id in
  first-seen order. Ids are *stable for the process lifetime*: they
  never change, which makes them the handle future bitmap/roaring set
  representations can index by. Interning is thread-safe.
* **sort keys** — the engine's merge operators need keys whose integer
  order equals URI lexicographic order (the URI-ascending stream
  invariant). Ids arrive in sync order, not sorted order, so a second,
  lazily rebuilt indirection provides it: a :class:`DictionaryView`
  snapshot maps ``uri ↔ sort key`` where ``key = rank * KEY_GAP`` over
  the sorted URI list. The gap leaves room for URIs that surface
  *after* the snapshot (a mid-execution sync, an unregistered plugin
  root): they are placed between their neighbours' keys in a private
  per-view overlay, so one execution stays self-consistent without
  shifting anybody else's keys.

Rebuilding the view (a **remap**) happens lazily, at the first
execution after the interned set grew. Executions hold the snapshot
they started with — a remap never mutates a live view's arrays, it
replaces them — so cached result batches materialize correctly forever,
and ``view.is_stale`` tells a holder that fresher keys exist.

Durability: ids are *not* persisted. Snapshot load, WAL replay and
crash recovery all re-register views through the catalog, which
re-interns every URI — the dictionary is derived state, rebuilt
deterministically from the recovered catalog (see DESIGN.md §4h).

Since the keyset refactor (DESIGN.md §4j) the view also bridges **ids**
to sort keys: a remap builds two dense arrays — ``id → sort key`` and
``rank → id`` — so an index that hands the engine a
:class:`~repro.rvm.keyset.KeySet` of catalog ids gets its key column by
integer array indexing (:meth:`DictionaryView.keys_for_ids`), with *no
per-URI string hashing*. Only ids interned after the snapshot fall back
through the string overlay.

Telemetry (``query.dict.*``): ``query.dict.size`` (interned URIs),
``query.dict.lookups`` (string key/URI conversions),
``query.dict.handoffs`` (id→key conversions that bypassed strings), and
``query.dict.remaps`` (sort-view rebuilds) flow through
:mod:`repro.obs` at batch granularity — never per row.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, insort
from typing import Iterable, Sequence

from ..core.errors import StaleDictionaryError

#: Distance between consecutive base sort keys. A late-arriving URI is
#: placed by repeated halving of the gap between its neighbours, so one
#: gap absorbs ~log2(KEY_GAP) adversarially nested arrivals (and far
#: more in the typical scattered case) before a remap is forced.
_KEY_SHIFT = 20
KEY_GAP = 1 << _KEY_SHIFT


class DictionaryView:
    """An immutable sort-key snapshot of the dictionary.

    One execution captures one view: every key it hands out is
    consistent with every other key from the same view, and the arrays
    are never mutated afterwards (a dictionary remap *replaces* them),
    so result batches that outlive the execution — the service result
    cache replays them — keep materializing the right URIs.
    """

    __slots__ = ("_dictionary", "version", "_sorted_uris",
                 "_key_of_id", "_id_at_rank",
                 "_overlay", "_overlay_rev", "_overlay_sorted", "_lock")

    def __init__(self, dictionary: "UriDictionary", version: int,
                 sorted_uris: list[str], key_of_id: array,
                 id_at_rank: array):
        self._dictionary = dictionary
        self.version = version
        #: rank -> uri; a URI's base key is its rank here times KEY_GAP
        self._sorted_uris = sorted_uris
        #: dense id -> sort key (every id < len is covered: ids and the
        #: sorted URI list are two orderings of the same interned set)
        self._key_of_id = key_of_id
        #: rank -> id (inverts key // KEY_GAP back to the catalog id)
        self._id_at_rank = id_at_rank
        #: late arrivals: uri -> key, key -> uri, plus a sorted (uri,
        #: key) list for neighbour search. Small by construction.
        self._overlay: dict[str, int] = {}
        self._overlay_rev: dict[int, str] = {}
        self._overlay_sorted: list[tuple[str, int]] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._sorted_uris) + len(self._overlay)

    @property
    def is_stale(self) -> bool:
        """True when the dictionary has remapped (or grown) since this
        view was captured — a fresh execution would see newer keys."""
        dictionary = self._dictionary
        return dictionary.version != self.version or dictionary.dirty

    # -- uri -> key ---------------------------------------------------------

    def key_for(self, uri: str) -> int:
        """The sort key of ``uri`` (key order == URI lexicographic
        order). Unknown URIs get an overlay key between their
        neighbours; an exhausted gap raises
        :class:`~repro.core.errors.StaleDictionaryError`."""
        sorted_uris = self._sorted_uris
        rank = bisect_left(sorted_uris, uri)
        if rank < len(sorted_uris) and sorted_uris[rank] == uri:
            return rank * KEY_GAP
        key = self._overlay.get(uri)
        if key is not None:
            return key
        return self._assign_overlay_key(uri)

    # -- id <-> key (the zero-copy keyset handoff, DESIGN.md §4j) -----------

    def keys_for_ids(self, ids) -> array:
        """Sorted ``array('q')`` of sort keys for a set of catalog ids
        (a :class:`~repro.rvm.keyset.KeySet` or any iterable of ids).

        The common case — ids interned before this snapshot — is pure
        integer array indexing and never touches a URI string; only ids
        interned *after* the snapshot (a mid-execution sync) detour
        through the string overlay, and only those count as dictionary
        ``lookups``.
        """
        key_of_id = self._key_of_id
        id_list = ids.to_list() if hasattr(ids, "to_list") else list(ids)
        try:
            out = [key_of_id[i] for i in id_list]
        except IndexError:  # ids interned after this snapshot
            n = len(key_of_id)
            out = [key_of_id[i] for i in id_list if i < n]
            late = [i for i in id_list if i >= n]
            uri_of = self._dictionary.uri_of
            out.extend(self.key_for(uri_of(i)) for i in late)
            self._dictionary.count_lookups(len(late))
        out.sort()
        self._dictionary.count_handoffs(len(out))
        return array("q", out)

    def keys_in_order_ids(self, ids) -> array:
        """Keys for an already-ordered id sequence (order preserved)."""
        key_of_id = self._key_of_id
        n = len(key_of_id)
        out = array("q", (
            key_of_id[i] if 0 <= i < n else self.key_for_id(i)
            for i in ids
        ))
        self._dictionary.count_handoffs(len(out))
        return out

    def key_for_id(self, view_id: int) -> int:
        """One id's sort key (array hit, or overlay for late ids)."""
        key_of_id = self._key_of_id
        if 0 <= view_id < len(key_of_id):
            return key_of_id[view_id]
        return self.key_for(self._dictionary.uri_of(view_id))

    def id_for_key(self, key: int) -> int:
        """Invert a sort key to its catalog id (base rank or overlay)."""
        if key >= 0 and not key % KEY_GAP:
            rank = key // KEY_GAP
            id_at_rank = self._id_at_rank
            if rank < len(id_at_rank):
                return id_at_rank[rank]
        # overlay key: the self-heal in _assign_overlay_key interned the
        # URI, so an id exists (intern() is an idempotent lookup here)
        return self._dictionary.intern(self._overlay_rev[key])

    def ids_for_keys(self, keys: Sequence[int]) -> list[int]:
        """Invert a column of keys this view issued to catalog ids
        (order kept). With no overlay every key is a base key, so the
        column inverts by a shift and an index per key, the trick
        :meth:`uris_for` uses; otherwise each key takes
        :meth:`id_for_key`."""
        if not self._overlay_rev:
            id_at_rank = self._id_at_rank
            return [id_at_rank[k >> _KEY_SHIFT] for k in keys]
        return [*map(self.id_for_key, keys)]

    # -- key -> uri ---------------------------------------------------------

    def uri_for(self, key: int) -> str:
        """The URI a key stands for (base rank or overlay)."""
        if key >= 0 and not key % KEY_GAP:
            rank = key // KEY_GAP
            if rank < len(self._sorted_uris):
                return self._sorted_uris[rank]
        return self._overlay_rev[key]

    def uris_for(self, keys: Sequence[int]) -> tuple[str, ...]:
        """Materialize a key column back to URI strings (the result
        boundary — the only place strings reappear).

        A view with no overlay — every execution that met no late
        arrival — has handed out base keys only, each its rank times
        ``KEY_GAP``, so the column decodes by a shift and an index per
        key with nothing to test. (The overlay only ever grows, so keys
        this view issued before the check cannot be overlay keys.)
        """
        sorted_uris = self._sorted_uris
        if not self._overlay_rev:
            # a comprehension on purpose: under CPython 3.11 its inlined
            # subscript beats map(list.__getitem__, ...) by a third
            out = tuple([sorted_uris[k >> _KEY_SHIFT] for k in keys])
        else:
            n = len(sorted_uris)
            out = tuple(
                sorted_uris[k // KEY_GAP]
                if k >= 0 and not k % KEY_GAP and k // KEY_GAP < n
                else self._overlay_rev[k]
                for k in keys
            )
        self._dictionary.count_lookups(len(out))
        return out

    # -- overlay ------------------------------------------------------------

    def _assign_overlay_key(self, uri: str) -> int:
        with self._lock:
            key = self._overlay.get(uri)
            if key is not None:  # lost a race: another thread placed it
                return key
            position = bisect_left(self._sorted_uris, uri)
            low = (position - 1) * KEY_GAP if position else -KEY_GAP
            high = (position * KEY_GAP if position < len(self._sorted_uris)
                    else len(self._sorted_uris) * KEY_GAP)
            # narrow by overlay members already placed in this gap
            for other, other_key in self._overlay_sorted:
                if low < other_key < high:
                    if other < uri:
                        low = other_key
                    else:
                        high = other_key
            key = (low + high) // 2
            if key == low or key == high:
                raise StaleDictionaryError(
                    f"sort-key gap exhausted placing {uri!r}; "
                    f"retry on a fresh dictionary view"
                )
            self._overlay[uri] = key
            self._overlay_rev[key] = uri
            insort(self._overlay_sorted, (uri, key))
        # self-heal: the *next* view gets this URI as a base key
        self._dictionary.intern(uri)
        return key


class UriDictionary:
    """Process-wide interner: URI ↔ dense stable id, plus the sort-key
    view factory. All methods are thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._id_of: dict[str, int] = {}
        self._uri_of: list[str] = []
        self._view: DictionaryView | None = None
        self._dirty = True
        self.version = 0       # bumps on every remap
        self.remaps = 0
        self.lookups = 0
        self.handoffs = 0

    # -- interning ----------------------------------------------------------

    def intern(self, uri: str) -> int:
        """The dense id of ``uri``, assigning one on first sight."""
        existing = self._id_of.get(uri)
        if existing is not None:
            return existing
        with self._lock:
            existing = self._id_of.get(uri)
            if existing is not None:
                return existing
            new_id = len(self._uri_of)
            self._uri_of.append(uri)
            self._id_of[uri] = new_id
            self._dirty = True
            return new_id

    def intern_many(self, uris: Iterable[str]) -> None:
        for uri in uris:
            if uri not in self._id_of:
                self.intern(uri)

    def id_of(self, uri: str) -> int | None:
        return self._id_of.get(uri)

    def uri_of(self, view_id: int) -> str:
        return self._uri_of[view_id]

    def __len__(self) -> int:
        return len(self._uri_of)

    def __contains__(self, uri: str) -> bool:
        return uri in self._id_of

    @property
    def dirty(self) -> bool:
        """True when URIs were interned since the last remap."""
        return self._dirty

    # -- the sort-key view --------------------------------------------------

    def view(self) -> DictionaryView:
        """The current sort-key snapshot, remapping first if the
        interned set grew since the last one."""
        view = self._view
        if view is not None and not self._dirty:
            return view
        with self._lock:
            if self._view is None or self._dirty:
                self._remap_locked()
            return self._view

    def _remap_locked(self) -> None:
        sorted_uris = sorted(self._uri_of)
        # the id bridge: ids are first-seen order, ranks are sorted
        # order — two permutations of the same set, so both arrays are
        # dense and total (no sentinel slots)
        id_of = self._id_of
        id_at_rank = array("q", (id_of[uri] for uri in sorted_uris))
        key_of_id = array("q", bytes(8 * len(sorted_uris)))
        for rank, view_id in enumerate(id_at_rank):
            key_of_id[view_id] = rank * KEY_GAP
        self.version += 1
        self.remaps += 1
        self._view = DictionaryView(self, self.version, sorted_uris,
                                    key_of_id, id_at_rank)
        self._dirty = False
        from .. import obs
        if obs.enabled():
            obs.increment("query.dict.remaps")
            obs.set_gauge("query.dict.size", len(sorted_uris))

    # -- telemetry ----------------------------------------------------------

    def count_lookups(self, amount: int) -> None:
        """Tally ``amount`` key/URI conversions (batch granularity)."""
        self.lookups += amount  # GIL-atomic enough for a statistic
        from .. import obs
        if obs.enabled():
            obs.increment("query.dict.lookups", amount)

    def count_handoffs(self, amount: int) -> None:
        """Tally ``amount`` id→key conversions that bypassed strings."""
        self.handoffs += amount
        from .. import obs
        if obs.enabled():
            obs.increment("query.dict.handoffs", amount)

    def stats(self) -> dict[str, int]:
        return {"size": len(self._uri_of), "remaps": self.remaps,
                "lookups": self.lookups, "handoffs": self.handoffs,
                "version": self.version}


#: The process-wide dictionary every dataspace in this process shares —
#: ids are identity, not ownership, so sharing across dataspaces is
#: harmless and keeps the engine's batch columns uniform.
GLOBAL_DICTIONARY = UriDictionary()


def global_uri_dictionary() -> UriDictionary:
    return GLOBAL_DICTIONARY
