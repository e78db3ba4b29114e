"""Property-based tests: snapshot and WAL round-trip exactness.

A snapshot (``save_state``/``load_state``) must preserve every catalog
row, name-index entry and full-text posting *exactly* — not just
query-equivalently — and a WAL must replay precisely the commit units
that were appended, in order, across reopens.
"""

import string
from datetime import datetime

from hypothesis import given, settings, strategies as st

from repro.core.components import GroupComponent, TupleComponent, ViewSequence
from repro.core.identity import ViewId
from repro.core.resource_view import ResourceView
from repro.durability.wal import WriteAheadLog
from repro.rvm import ResourceViewManager
from repro.rvm.persistence import StubView, load_state, save_state

_SEGMENT = st.text(alphabet=string.ascii_lowercase + string.digits,
                   min_size=1, max_size=8)
_WORDS = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
    min_size=0, max_size=12,
)
_VALUE = st.one_of(
    st.integers(min_value=-2**31, max_value=2**31),
    st.text(alphabet=string.printable, max_size=20),
    st.datetimes(min_value=datetime(1990, 1, 1),
                 max_value=datetime(2038, 1, 1)),
)

_VIEW = st.fixed_dictionaries({
    "path": st.lists(_SEGMENT, min_size=1, max_size=3).map("/".join),
    "name": _SEGMENT,
    "class_name": st.sampled_from(["file", "folder", "emailmessage",
                                   "xmlelem", "latex_section"]),
    "text": _WORDS.map(" ".join),
    "values": st.dictionaries(_SEGMENT, _VALUE, max_size=4),
    "children": st.lists(_SEGMENT, max_size=4, unique=True),
})

_VIEWS = st.lists(_VIEW, min_size=1, max_size=10,
                  unique_by=lambda v: v["path"])


def _populate(rvm, views):
    for spec in views:
        uri = f"fs:///{spec['path']}"
        view = ResourceView(spec["name"], class_name=spec["class_name"],
                            view_id=ViewId.parse(uri))
        rvm.catalog.register(view, kind="base", size=len(spec["text"]),
                             child_count=len(spec["children"]))
        rvm.indexes.name_index.add(uri, spec["name"])
        if spec["text"]:
            rvm.indexes.content_index.add(uri, spec["text"])
        if spec["values"]:
            rvm.indexes.tuple_index.add(
                uri, TupleComponent.from_dict(spec["values"]))
        if spec["children"]:
            members = [StubView(f"{uri}/{child}")
                       for child in spec["children"]]
            rvm.indexes.group_replica.add_group(
                ViewId.parse(uri),
                GroupComponent(set_part=ViewSequence(members),
                               seq_part=ViewSequence([])),
            )
    return rvm


def _postings_map(content):
    return {
        term: sorted(
            (content.key_of(doc), tuple(positions))
            for doc, positions in content.postings(term)
        )
        for term in content.terms_matching(lambda t: True)
    }


class TestSnapshotRoundTrip:
    @given(views=_VIEWS)
    @settings(max_examples=60, deadline=None)
    def test_catalog_rows_preserved_exactly(self, views, tmp_path_factory):
        base = tmp_path_factory.mktemp("snap")
        original = _populate(ResourceViewManager(), views)
        save_state(original, base / "s")
        restored = ResourceViewManager()
        load_state(restored, base / "s")
        assert sorted(
            (r.uri, r.name, r.class_name, r.kind, r.size, r.child_count)
            for r in restored.catalog.all_records()
        ) == sorted(
            (r.uri, r.name, r.class_name, r.kind, r.size, r.child_count)
            for r in original.catalog.all_records()
        )

    @given(views=_VIEWS)
    @settings(max_examples=60, deadline=None)
    def test_name_entries_preserved_exactly(self, views, tmp_path_factory):
        base = tmp_path_factory.mktemp("snap")
        original = _populate(ResourceViewManager(), views)
        save_state(original, base / "s")
        restored = ResourceViewManager()
        load_state(restored, base / "s")
        assert sorted(restored.indexes.name_index.stored_items()) \
            == sorted(original.indexes.name_index.stored_items())

    @given(views=_VIEWS)
    @settings(max_examples=60, deadline=None)
    def test_fulltext_postings_preserved_exactly(self, views,
                                                 tmp_path_factory):
        base = tmp_path_factory.mktemp("snap")
        original = _populate(ResourceViewManager(), views)
        save_state(original, base / "s")
        restored = ResourceViewManager()
        load_state(restored, base / "s")
        assert _postings_map(restored.indexes.content_index) \
            == _postings_map(original.indexes.content_index)
        for uri in (f"fs:///{v['path']}" for v in views if v["text"]):
            original_doc = original.indexes.content_index.doc_of(uri)
            restored_doc = restored.indexes.content_index.doc_of(uri)
            assert original.indexes.content_index.doc_length(original_doc) \
                == restored.indexes.content_index.doc_length(restored_doc)

    @given(views=_VIEWS)
    @settings(max_examples=60, deadline=None)
    def test_tuples_and_groups_preserved(self, views, tmp_path_factory):
        base = tmp_path_factory.mktemp("snap")
        original = _populate(ResourceViewManager(), views)
        save_state(original, base / "s")
        restored = ResourceViewManager()
        load_state(restored, base / "s")
        for spec in views:
            uri = f"fs:///{spec['path']}"
            original_tuple = original.indexes.tuple_index.tuple_of(uri)
            restored_tuple = restored.indexes.tuple_index.tuple_of(uri)
            if original_tuple is None:
                assert restored_tuple is None
            else:
                assert restored_tuple.as_dict() == original_tuple.as_dict()
            assert restored.indexes.group_replica.children(uri) \
                == original.indexes.group_replica.children(uri)


_UNITS = st.lists(
    st.lists(
        st.fixed_dictionaries({
            "t": st.just("name"),
            "uri": _SEGMENT.map("fs:///{}".format),
            "name": _SEGMENT,
        }),
        min_size=1, max_size=4,
    ),
    min_size=1, max_size=25,
)


class TestWalRoundTrip:
    @given(units=_UNITS,
           segment_max=st.integers(min_value=64, max_value=512))
    @settings(max_examples=60, deadline=None)
    def test_replay_equals_appends_across_reopen(self, units, segment_max,
                                                 tmp_path_factory):
        base = tmp_path_factory.mktemp("wal")
        with WriteAheadLog(base, fsync="off",
                           segment_max_bytes=segment_max) as wal:
            for records in units:
                wal.append(records)
        with WriteAheadLog(base, fsync="off",
                           segment_max_bytes=segment_max) as wal:
            frames = list(wal.replay())
        assert [lsn for lsn, _ in frames] == list(range(1, len(units) + 1))
        assert [frame["r"] for _, frame in frames] == units
