"""The URI dictionary: interning, sort keys, overlays, concurrency.

The dictionary is the engine's identity layer (DESIGN.md §4h): dense
stable ids assigned at intern time, and per-execution sort-key views
whose integer order must equal URI lexicographic order — including for
URIs that surface *after* a view was captured (overlay keys). These
tests pin that contract directly, without a dataspace.
"""

from __future__ import annotations

import threading
from array import array

import pytest

from repro.core.errors import StaleDictionaryError
from repro.rvm.uridict import (
    KEY_GAP,
    DictionaryView,
    UriDictionary,
    global_uri_dictionary,
)


class TestInterning:
    def test_ids_are_dense_and_stable(self):
        d = UriDictionary()
        first = d.intern("vfs://b")
        second = d.intern("vfs://a")
        assert (first, second) == (0, 1)  # first-seen order, not sorted
        assert d.intern("vfs://b") == first  # re-intern is a no-op
        assert len(d) == 2
        assert d.uri_of(first) == "vfs://b"
        assert d.id_of("vfs://a") == second
        assert "vfs://a" in d and "vfs://zzz" not in d

    def test_concurrent_intern_no_lost_or_duplicate_ids(self):
        """8 threads intern overlapping URI sets; every URI must get
        exactly one id, ids stay dense, and the id↔URI maps agree."""
        d = UriDictionary()
        uris = [f"vfs://stress/{i:04d}" for i in range(400)]
        barrier = threading.Barrier(8)

        def worker(offset: int):
            barrier.wait()
            # each thread walks the list from a different start so the
            # same URIs race from different threads
            for i in range(len(uris)):
                d.intern(uris[(i + offset * 50) % len(uris)])

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(d) == len(uris)  # no lost, no duplicate entries
        ids = sorted(d.id_of(uri) for uri in uris)
        assert ids == list(range(len(uris)))  # dense, collision-free
        for uri in uris:
            assert d.uri_of(d.id_of(uri)) == uri  # round-trip


class TestSortKeys:
    def test_key_order_equals_uri_order(self):
        d = UriDictionary()
        uris = ["imap://inbox/9", "vfs://z", "imap://inbox/10", "rss://a"]
        d.intern_many(uris)
        view = d.view()
        keys = [view.key_for(u) for u in sorted(uris)]
        assert keys == sorted(keys)
        assert all(k % KEY_GAP == 0 for k in keys)  # base, gap-aligned

    def test_round_trip_and_batch_conversions(self):
        d = UriDictionary()
        uris = [f"vfs://f/{c}" for c in "dacb"]
        d.intern_many(uris)
        view = d.view()
        ids = [d.id_of(uri) for uri in uris]
        keys = view.keys_for_ids(ids)
        assert isinstance(keys, array) and keys.typecode == "q"
        assert list(keys) == sorted(keys)
        assert view.uris_for(keys) == tuple(sorted(uris))
        in_order = view.keys_in_order_ids(ids)
        assert view.uris_for(in_order) == tuple(uris)
        assert view.ids_for_keys(in_order) == ids
        for uri in uris:
            assert view.uri_for(view.key_for(uri)) == uri
            assert view.id_for_key(view.key_for(uri)) == d.id_of(uri)

    def test_monotonicity_survives_remaps(self):
        """Growing the dictionary and remapping yields a *new* view
        whose keys are again URI-ordered — and the old view's keys are
        untouched (copy-on-rebuild)."""
        d = UriDictionary()
        d.intern_many(["vfs://m", "vfs://d"])
        old = d.view()
        old_keys = {u: old.key_for(u) for u in ("vfs://d", "vfs://m")}

        d.intern_many(["vfs://a", "vfs://z", "vfs://k"])
        assert old.is_stale
        fresh = d.view()
        assert fresh is not old
        assert fresh.version > old.version
        everything = sorted(["vfs://m", "vfs://d", "vfs://a", "vfs://z",
                             "vfs://k"])
        fresh_keys = [fresh.key_for(u) for u in everything]
        assert fresh_keys == sorted(fresh_keys)
        # the old snapshot still answers exactly as before
        assert {u: old.key_for(u) for u in old_keys} == old_keys

    def test_view_is_cached_until_growth(self):
        d = UriDictionary()
        d.intern("vfs://a")
        first = d.view()
        assert d.view() is first  # no growth: same snapshot
        d.intern("vfs://b")
        assert d.view() is not first


class TestOverlay:
    def _view(self, *uris) -> tuple[UriDictionary, DictionaryView]:
        d = UriDictionary()
        d.intern_many(uris)
        return d, d.view()

    def test_late_arrival_lands_between_neighbours(self):
        d, view = self._view("vfs://a", "vfs://c")
        key = view.key_for("vfs://b")  # unknown to this view
        assert view.key_for("vfs://a") < key < view.key_for("vfs://c")
        assert view.uri_for(key) == "vfs://b"
        # self-healed: the dictionary interned it for the next view
        assert "vfs://b" in d
        assert d.view().key_for("vfs://b") % KEY_GAP == 0

    def test_late_arrival_before_first_and_after_last(self):
        _, view = self._view("vfs://m")
        low = view.key_for("vfs://a")
        high = view.key_for("vfs://z")
        assert low < view.key_for("vfs://m") < high

    def test_multiple_overlay_keys_stay_ordered(self):
        _, view = self._view("vfs://a", "vfs://z")
        arrivals = ["vfs://d", "vfs://b", "vfs://y", "vfs://c"]
        for uri in arrivals:
            view.key_for(uri)
        everything = sorted(["vfs://a", "vfs://z", *arrivals])
        keys = [view.key_for(u) for u in everything]
        assert keys == sorted(keys)

    def test_bulk_key_to_id_matches_per_key_with_late_keys(self):
        """``ids_for_keys`` takes a shortcut while the view has no
        overlay; once late keys exist it must still invert every key —
        base and overlay alike — exactly as ``id_for_key`` does."""
        d, view = self._view("vfs://a", "vfs://c", "vfs://e")
        base = [view.key_for(u) for u in ("vfs://e", "vfs://a")]
        assert view.ids_for_keys(base) == [view.id_for_key(k) for k in base]
        late = [view.key_for(u) for u in ("vfs://d", "vfs://b")]
        keys = [late[0], *base, late[1]]
        assert view.ids_for_keys(keys) == [view.id_for_key(k) for k in keys]
        assert view.ids_for_keys(late) == [d.id_of("vfs://d"),
                                           d.id_of("vfs://b")]

    def test_concurrent_overlay_assignment_is_consistent(self):
        _, view = self._view("vfs://a", "vfs://c")
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(view.key_for("vfs://b"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1  # one key, however many racers

    def test_gap_exhaustion_raises_stale_dictionary_error(self):
        """Adversarially nested arrivals halve one gap until it is
        spent; the view must fail loudly, not hand out a colliding or
        misordered key."""
        _, view = self._view("a", "c")
        with pytest.raises(StaleDictionaryError):
            for i in range(2 * KEY_GAP.bit_length()):
                view.key_for("a" * (i + 1) + "b")


class TestGlobalDictionary:
    def test_catalog_registration_interns(self):
        """Every view registered in a catalog is queryable by key —
        sync, snapshot load and WAL recovery all pass through
        ``ResourceViewCatalog.register``."""
        from repro.core.identity import ViewId
        from repro.core.resource_view import ResourceView
        from repro.rvm.catalog import ResourceViewCatalog

        view = ResourceView(
            "uridict-probe.txt",
            view_id=ViewId("fs", "/uridict-probe.txt"),
        )
        catalog = ResourceViewCatalog()
        catalog.register(view, kind="base")
        assert view.view_id.uri in global_uri_dictionary()
