"""Tests for the plan/result caches and their invalidation protocol."""

from repro.core.identity import ViewId
from repro.facade import Dataspace
from repro.pushops import ChangeEvent, ChangeKind, ComponentKind, PushBus
from repro.service import LRUCache, ResultCache


def _event(uri: str = "fs:///x", kind: ChangeKind = ChangeKind.MODIFIED):
    return ChangeEvent(ViewId.parse(uri), ComponentKind.GROUP, kind)


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.hits == 1 and cache.misses == 1

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_epoch_entries_expire(self):
        cache = LRUCache(4)
        cache.put("a", 1, epoch=1)
        assert cache.get("a", min_epoch=1) == 1
        assert cache.get("a", min_epoch=2) is None   # dropped as stale
        assert cache.get("a", min_epoch=1) is None   # really gone
        assert cache.invalidations == 1

    def test_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0


class TestResultCache:
    def test_round_trip_without_bus(self):
        cache = ResultCache(8)
        key = '"x"'
        cache.put(key, "result")
        assert cache.get(key) == "result"

    def test_any_change_event_invalidates(self):
        bus = PushBus()
        cache = ResultCache(8, bus=bus)
        key = '"x"'
        cache.put(key, "result")
        bus.publish(_event())
        assert cache.get(key) is None
        assert cache.invalidations == 1

    def test_added_and_removed_events_also_invalidate(self):
        for kind in (ChangeKind.ADDED, ChangeKind.REMOVED):
            bus = PushBus()
            cache = ResultCache(8, bus=bus)
            key = '"x"'
            cache.put(key, "result")
            bus.publish(_event(kind=kind))
            assert cache.get(key) is None, kind

    def test_entry_written_before_midflight_change_is_stale(self):
        """A change landing between epoch capture and put() kills the
        entry: it was computed against pre-change data."""
        bus = PushBus()
        cache = ResultCache(8, bus=bus)
        key = '"x"'
        epoch = cache.epoch          # captured at execution start
        bus.publish(_event())        # data changes mid-execution
        cache.put(key, "stale-result", epoch=epoch)
        assert cache.get(key) is None

    def test_detach_stops_invalidation(self):
        bus = PushBus()
        cache = ResultCache(8, bus=bus)
        key = '"x"'
        cache.detach()
        cache.put(key, "result")
        bus.publish(_event())
        assert cache.get(key) == "result"


class TestServiceInvalidation:
    """Satellite: cached results are flushed — never served stale —
    after a vfs modification propagates through ``rvm.sync``."""

    def test_modified_file_flushes_dependent_result(self, generated_tiny):
        dataspace = Dataspace(vfs=generated_tiny.vfs,
                              imap=generated_tiny.imap)
        dataspace.sync()
        dataspace.watch()
        generated_tiny.vfs.write_file("/Projects/note.txt", "okapi herd")
        dataspace.refresh()
        with dataspace.serve(workers=2) as service:
            first = service.execute('"okapi"')
            assert len(first) == 1
            # warm: the repeat must come from the result cache
            again = service.execute('"okapi"')
            assert service.stats()["cache.result.hits"] == 1
            assert again.uris() == first.uris()
            # modify the file; the sync pass must flush the entry
            generated_tiny.vfs.write_file("/Projects/note.txt",
                                          "gnu stampede")
            dataspace.refresh()
            stale = service.execute('"okapi"')
            fresh = service.execute('"gnu"')
            assert len(stale) == 0, "stale cached result was served"
            assert len(fresh) == 1

    def test_new_file_extends_cached_result(self, generated_tiny):
        """ADD events must invalidate too: the old result simply does
        not mention the new view."""
        dataspace = Dataspace(vfs=generated_tiny.vfs,
                              imap=generated_tiny.imap)
        dataspace.sync()
        dataspace.watch()
        with dataspace.serve(workers=2) as service:
            before = len(service.execute('"database"'))
            generated_tiny.vfs.write_file("/Projects/extra.txt",
                                          "database of wonders")
            dataspace.refresh()
            after = len(service.execute('"database"'))
            assert after == before + 1

    def test_deletion_shrinks_cached_result(self, generated_tiny):
        dataspace = Dataspace(vfs=generated_tiny.vfs,
                              imap=generated_tiny.imap)
        dataspace.sync()
        dataspace.watch()
        generated_tiny.vfs.write_file("/Projects/doomed.txt", "vanishing ibex")
        dataspace.refresh()
        with dataspace.serve(workers=2) as service:
            assert len(service.execute('"ibex"')) == 1
            generated_tiny.vfs.delete("/Projects/doomed.txt")
            dataspace.refresh()
            assert len(service.execute('"ibex"')) == 0
