"""Tests for the Resource View Catalog."""

from repro.core.identity import ViewId
from repro.core.resource_view import ResourceView
from repro.rvm.catalog import ResourceViewCatalog
from repro.rvm.uridict import global_uri_dictionary


def _view(name, path=None, class_name=None, authority="fs"):
    return ResourceView(name, class_name=class_name,
                        view_id=ViewId(authority, path or f"/{name}"))


def _uris(ids) -> set[str]:
    """A bucket of catalog ids, read back through the dictionary."""
    return set(map(global_uri_dictionary().uri_of, ids))


class TestRegistration:
    def test_register_and_get(self):
        catalog = ResourceViewCatalog()
        view = _view("a", class_name="file")
        catalog.register(view, kind="base", size=10, child_count=0)
        record = catalog.get(view.view_id)
        assert record.name == "a"
        assert record.class_name == "file"
        assert record.size == 10

    def test_reregister_updates(self):
        catalog = ResourceViewCatalog()
        view = _view("a")
        catalog.register(view, kind="base", size=1)
        catalog.register(view, kind="base", size=99)
        assert catalog.get(view.view_id).size == 99
        assert len(catalog) == 1

    def test_reregister_moves_between_buckets(self):
        catalog = ResourceViewCatalog()
        catalog.register(_view("draft", "/doc", "file"), kind="base")
        catalog.register(_view("final", "/doc", "folder"), kind="base")
        assert not catalog.ids_by_name("draft")
        assert not catalog.ids_by_class("file")
        assert _uris(catalog.ids_by_name("final")) == {"fs:///doc"}
        assert _uris(catalog.ids_by_class("folder")) == {"fs:///doc"}
        assert catalog.counts_by_authority() == {"fs": 1}

    def test_unregister(self):
        catalog = ResourceViewCatalog()
        view = _view("a")
        catalog.register(view, kind="base")
        assert catalog.unregister(view.view_id)
        assert view.view_id not in catalog
        assert not catalog.unregister(view.view_id)

    def test_contains_accepts_uri_strings(self):
        catalog = ResourceViewCatalog()
        view = _view("a")
        catalog.register(view, kind="base")
        assert view.view_id.uri in catalog


class TestLookups:
    def _catalog(self):
        catalog = ResourceViewCatalog()
        catalog.register(_view("intro", "/a#s1", "latex_section"),
                         kind="derived")
        catalog.register(_view("intro", "/b#s1", "latex_section"),
                         kind="derived")
        catalog.register(_view("fig", "/a#e1", "figure"), kind="derived")
        catalog.register(_view("mail", "INBOX/1", "emailmessage",
                               authority="imap"), kind="base")
        return catalog

    def test_by_name(self):
        catalog = self._catalog()
        assert _uris(catalog.ids_by_name("intro")) \
            == {"fs:///a#s1", "fs:///b#s1"}
        assert not catalog.ids_by_name("zzz")

    def test_by_class(self):
        catalog = self._catalog()
        assert len(catalog.ids_by_class("latex_section")) == 2
        assert _uris(catalog.ids_by_class("figure")) == {"fs:///a#e1"}

    def test_by_authority(self):
        catalog = self._catalog()
        assert _uris(catalog.ids_by_authority("imap")) == {"imap://INBOX/1"}
        assert len(catalog.ids_by_authority("fs")) == 3

    def test_all_uris(self):
        catalog = self._catalog()
        assert len(catalog.all_uris()) == 4

    def test_counts_by_authority(self):
        catalog = self._catalog()
        assert catalog.counts_by_authority() == {"fs": 3, "imap": 1}

    def test_counts_by_kind(self):
        catalog = self._catalog()
        assert catalog.counts_by_kind() == {"derived": 3, "base": 1}

    def test_missing_get_is_none(self):
        assert ResourceViewCatalog().get(ViewId("fs", "/x")) is None


class TestSizeAccounting:
    def test_size_grows_with_registrations(self):
        catalog = ResourceViewCatalog()
        empty = catalog.size_bytes()
        for index in range(100):
            catalog.register(_view(f"v{index}"), kind="base")
        assert catalog.size_bytes() > empty

    def test_size_is_the_table3_formula(self):
        """Table 3's catalog column, by hand: a record is 8 bytes, plus
        UTF-8 length + 4 for each of uri, name, class, authority and
        kind, plus 8 for each of size and child count, plus 24 of key."""
        catalog = ResourceViewCatalog()
        catalog.register(_view("a.txt", "/a.txt", "file"), kind="base",
                         size=10, child_count=0)
        catalog.register(_view("Zürich", "/z", "folder"), kind="base",
                         child_count=2)
        catalog.register(_view("intro", "/p.tex#s1"), kind="derived")
        fixed = 8 + 5 * 4 + 2 * 8 + 24
        records = ((fixed + len("fs:///a.txt") + len("a.txt") + len("file")
                    + len("fs") + len("base"))
                   + (fixed + len("fs:///z") + len("Zürich".encode())
                      + len("folder") + len("fs") + len("base"))
                   + (fixed + len("fs:///p.tex#s1") + len("intro") + 0
                      + len("fs") + len("derived")))
        assert records == 94 + 94 + 96
        # the sorted distinct names in one "\n"-joined string, plus an
        # offset per name and one past the end, plus a pointer per name
        names = len("Zürich\na.txt\nintro".encode()) + 8 * 4 + 8 * 3
        keysets = sum(keyset.size_bytes() for keyset in (
            catalog.all_ids(),
            catalog.ids_by_name("a.txt"), catalog.ids_by_name("Zürich"),
            catalog.ids_by_name("intro"),
            catalog.ids_by_class("file"), catalog.ids_by_class("folder"),
            catalog.ids_by_class(""),
            catalog.ids_by_authority("fs"),
        ))
        assert catalog.size_bytes() == records + names + keysets


class TestRecordOrder:
    """all_records() order is a checkpoint's catalog.jsonl order."""

    def test_reregister_keeps_its_place(self):
        catalog = ResourceViewCatalog()
        for name in ("a", "b", "c"):
            catalog.register(_view(name), kind="base")
        catalog.register(_view("a"), kind="base", size=99)
        assert [r.name for r in catalog.all_records()] == ["a", "b", "c"]
        assert catalog.get("fs:///a").size == 99

    def test_unregister_then_register_moves_to_the_end(self):
        catalog = ResourceViewCatalog()
        for name in ("a", "b", "c"):
            catalog.register(_view(name), kind="base")
        catalog.unregister("fs:///a")
        catalog.register(_view("a"), kind="base")
        assert [r.name for r in catalog.all_records()] == ["b", "c", "a"]
