"""Tests for the group replica and the Replica&Indexes module."""

import random
import sys
import threading
import time

from repro.core.components import ContentComponent, GroupComponent
from repro.core.identity import ViewId
from repro.core.resource_view import ResourceView
from repro.rvm.indexes import IndexSet, _looks_like_text
from repro.rvm.replicas import GroupReplica


def _view(path, name="", children=(), content=None, tuple_component=None):
    return ResourceView(
        name, tuple_component=tuple_component, content=content,
        group=list(children), view_id=ViewId("fs", path),
    )


class TestGroupReplica:
    def test_children_recorded(self):
        child = _view("/a/b", "b")
        parent = _view("/a", "a", children=[child])
        replica = GroupReplica()
        replica.add(parent)
        assert replica.children(parent.view_id) == (child.view_id.uri,)

    def test_sequence_order_preserved(self):
        kids = [_view(f"/k{i}", f"k{i}") for i in range(3)]
        parent = ResourceView(
            "p", group=GroupComponent.of_sequence(kids),
            view_id=ViewId("fs", "/p"),
        )
        replica = GroupReplica()
        replica.add(parent)
        assert replica.sequence_children("fs:///p") == tuple(
            k.view_id.uri for k in kids
        )

    def test_readd_replaces(self):
        replica = GroupReplica()
        old_child = _view("/old", "old")
        parent = _view("/p", "p", children=[old_child])
        replica.add(parent)
        new_parent = _view("/p", "p", children=[_view("/new", "new")])
        replica.add(new_parent)
        assert replica.children("fs:///p") == ("fs:///new",)

    def test_remove(self):
        child = _view("/c", "c")
        parent = _view("/p", "p", children=[child])
        replica = GroupReplica()
        replica.add(parent)
        assert replica.remove(parent.view_id)
        assert replica.children("fs:///p") == ()
        assert not replica.remove(parent.view_id)

    def test_descendants_forward_expansion(self):
        leaf = _view("/a/b/c", "c")
        mid = _view("/a/b", "b", children=[leaf])
        root = _view("/a", "a", children=[mid])
        replica = GroupReplica()
        for view in (root, mid, leaf):
            replica.add(view)
        assert replica.descendants("fs:///a") == {
            "fs:///a/b", "fs:///a/b/c"
        }

    def test_descendants_cycle_safe(self):
        replica = GroupReplica()
        a = _view("/a", "a")
        b = _view("/b", "b", children=[a])
        a2 = _view("/a", "a", children=[b])
        replica.add(a2)
        replica.add(b)
        assert replica.descendants("fs:///a") == {"fs:///b", "fs:///a"}

    def test_infinite_group_windowed(self):
        def forever():
            index = 0
            while True:
                yield _view(f"/s/{index}", str(index))
                index += 1

        stream = ResourceView(
            group=GroupComponent.of_stream(forever),
            view_id=ViewId("stream", "s"),
        )
        replica = GroupReplica(infinite_window=5)
        replica.add(stream)
        assert len(replica.children("stream://s")) == 5

    def test_edge_count_and_size(self):
        replica = GroupReplica()
        replica.add(_view("/p", "p", children=[_view("/c", "c")]))
        assert replica.edge_count() == 1
        assert replica.size_bytes() > 0

    def test_size_is_node_headers_plus_forward_edges(self):
        """Table 3's group row: 16 B per node and 8 B per forward edge,
        plus the labels — 16 B per labelled view and 8 B per edge
        outside the spanning forest — through adds, a re-add and a
        remove (the labels follow the writes through their overlay)."""
        replica = GroupReplica()

        def check():
            labels = replica.labels()
            assert replica.size_bytes() == (
                16 * len(replica) + 8 * replica.edge_count()
                + 16 * len(labels)
                + 8 * (len(labels.residual) + len(labels.late)))

        leaf = _view("/a/b/c", "c")
        mid = _view("/a/b", "b", children=[leaf])
        for view in (_view("/a", "a", children=[mid, leaf]), mid, leaf):
            replica.add(view)
            check()
        assert (len(replica), replica.edge_count()) == (3, 3)
        replica.add(_view("/a", "a", children=[mid]))
        check()
        assert replica.remove("fs:///a/b")
        check()
        assert (len(replica), replica.edge_count()) == (2, 1)
        labels = replica.labels()
        assert (len(labels), labels.residual, labels.late) == (3, (), ())
        assert replica.size_bytes() == 16 * 2 + 8 * 1 + 16 * 3


class TestLabels:
    def _tree(self):
        """root -> a -> (b, c); root -> d, each a labelled node."""
        b, c = _view("/r/a/b", "b"), _view("/r/a/c", "c")
        a = _view("/r/a", "a", children=[b, c])
        d = _view("/r/d", "d")
        replica = GroupReplica()
        for view in (_view("/r", "r", children=[a, d]), a, b, c, d):
            replica.add(view)
        return replica, a, b, c, d

    def _id(self, replica, view):
        return replica._dictionary.id_of(view.view_id.uri)

    def test_intervals_are_pre_order_subtrees(self):
        replica, a, b, c, d = self._tree()
        labels = replica.labels()
        at = labels.rank[self._id(replica, a)]
        assert labels.end[at] - at == 3  # a, b, c
        assert labels.residual == labels.late == ()

    def test_writes_feed_the_overlay_or_drop_the_snapshot(self):
        replica, a, b, c, d = self._tree()
        base = replica.labels()
        replica.add(_view("/r/d", "d", children=[b]))  # an added edge
        labels = replica.labels()
        assert labels.rank is base.rank  # the base is shared
        assert labels.late == ((self._id(replica, d), self._id(replica, b)),)
        replica.add(_view("/r/a", "a", children=[b]))  # tree edge to a leaf
        labels = replica.labels()
        assert labels.rank is base.rank
        assert labels.detached == {self._id(replica, c)}
        assert replica.remove("fs:///r/d")  # its late edge goes
        assert replica.labels().late == ()
        replica.add(_view("/r", "r", children=[d]))  # above a subtree
        assert replica._labels is None
        assert replica.labels().rank is not base.rank

    def test_remove_keeps_the_node_in_its_parents_interval(self):
        replica, a, b, c, d = self._tree()
        replica.labels()
        assert replica.remove("fs:///r/a/b")
        root = self._id(replica, _view("/r", "r"))
        closure = replica.labels().closure()
        reached = closure.members(*closure.extend([root]))
        assert set(reached) == replica.descendant_ids(root)
        assert self._id(replica, b) in reached

    def test_published_labels_stay_current_under_concurrent_readers(self):
        """Readers build and read labels while a writer rewires the
        graph: no reader raises, and a build that raced a write is
        never kept — after every write, the published snapshot's edges
        (tree edges to attached views, residual and late edges) are the
        replica's edges, and at the end it answers as the BFS does."""
        size = 300
        nodes = [_view(f"/s/{i}", str(i)) for i in range(size)]
        replica = GroupReplica()
        rng = random.Random(7)

        def rewire():
            kids = rng.sample(nodes, rng.randrange(4))
            replica.add(_view(f"/s/{rng.randrange(size)}", children=kids))

        for _ in range(size):
            rewire()
        stop = threading.Event()
        errors: list[BaseException] = []

        def read():
            while not stop.is_set():
                try:
                    closure = replica.labels().closure()
                    closure.extend(list(replica.labels().rank))
                except BaseException as error:  # noqa: BLE001 - reported
                    errors.append(error)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=read) for _ in range(4)]
        try:
            for thread in readers:
                thread.start()
            for step in range(400):
                if step % 7:
                    rewire()
                else:
                    replica.remove(f"fs:///s/{rng.randrange(size)}")
                time.sleep(0)  # let a reader start a build
                published = replica._labels  # only this thread writes
                if published is not None:
                    assert self._edges_of(published) == self._edges(replica)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        labels = replica.labels()
        for node in labels.rank:
            closure = labels.closure()
            reached = closure.members(*closure.extend([node]))
            assert set(reached) == replica.descendant_ids(node)

    @staticmethod
    def _edges_of(labels) -> set:
        order, parent, detached = labels.order, labels.parent, labels.detached
        tree = {(order[up], order[at]) for at, up in enumerate(parent)
                if up >= 0 and order[at] not in detached}
        return tree | set(labels.residual) | set(labels.late)

    @staticmethod
    def _edges(replica) -> set:
        return {(node, kid) for node in replica._set_children
                for kid in replica.children_ids(node)}


class TestTextSniffer:
    def test_plain_text_accepted(self):
        assert _looks_like_text("ordinary text with words\n")

    def test_binary_rejected(self):
        assert not _looks_like_text("\x00\x01\x02" * 100)

    def test_mostly_binary_rejected(self):
        blob = ("\x00" * 80) + ("a" * 20)
        assert not _looks_like_text(blob)

    def test_threshold_is_inclusive(self):
        # 7 of 10 printable is exactly the 0.7 threshold; 69 of 100 is not
        assert _looks_like_text("a" * 7 + "\x00" * 3)
        assert not _looks_like_text("a" * 69 + "\x00" * 31)
        assert not _looks_like_text("a" * 7 + "\x00" * 3, threshold=0.71)

    def test_tabs_and_newlines_count_as_text(self):
        # none of "\t\n\r" is printable, yet all three count as text
        assert not any(ch.isprintable() for ch in "\t\n\r")
        assert _looks_like_text("\t\n\r" * 200)
        # 5 control whitespace + 2 printable vs 3 NULs: 0.7, accepted
        assert _looks_like_text("\t\n\r\n\tab\x00\x00\x00")
        # a vertical tab is neither printable nor one of the three
        assert not _looks_like_text("\v" * 7 + "ab\x00")

    def test_only_the_window_is_sniffed(self):
        assert _looks_like_text("a" * 512 + "\x00" * 10_000)
        assert not _looks_like_text("\x00" * 512 + "a" * 10_000)


class TestIndexSet:
    def _file(self, path="/f.txt", name="f.txt", text="database notes",
              size=10):
        return _view(path, name, content=text,
                     tuple_component={"size": size})

    def test_add_view_feeds_all_structures(self):
        indexes = IndexSet()
        view = self._file()
        indexes.add_view(view)
        uri = view.view_id.uri
        assert uri in indexes.name_index
        assert uri in indexes.content_index
        assert indexes.tuple_index.tuple_of(uri) is not None
        assert uri in indexes.group_replica

    def test_unnamed_view_skips_name_index(self):
        indexes = IndexSet()
        view = _view("/anon", "", content="text")
        indexes.add_view(view)
        assert view.view_id.uri not in indexes.name_index

    def test_readding_without_name_or_text_drops_old_entries(self):
        indexes = IndexSet()
        indexes.add_view(self._file(path="/r.txt", name="r.txt",
                                    text="zzuniqueword"))
        uri = "fs:///r.txt"
        indexes.add_view(_view("/r.txt", "", content="\x00\x01" * 100))
        assert uri not in indexes.name_index
        assert uri not in indexes.content_index
        assert indexes.content_index.postings("zzuniqueword") is None
        assert indexes.name_index.term_count == 0

    def test_name_replica_serves_names(self):
        indexes = IndexSet()
        view = self._file(name="Grant Proposal.doc")
        indexes.add_view(view)
        assert indexes.name_of(view.view_id) == "Grant Proposal.doc"
        assert indexes.name_of("fs:///ghost") == ""

    def test_content_index_is_not_a_replica(self):
        import pytest
        from repro.core.errors import FullTextError
        indexes = IndexSet()
        view = self._file()
        indexes.add_view(view)
        with pytest.raises(FullTextError):
            indexes.content_index.stored_text(view.view_id.uri)

    def test_binary_content_not_indexed(self):
        indexes = IndexSet()
        view = _view("/img.jpg", "img.jpg", content="\x00\x01" * 500)
        indexes.add_view(view)
        assert view.view_id.uri not in indexes.content_index
        assert indexes.net_input_bytes == 0

    def test_net_input_counts_text_only(self):
        indexes = IndexSet()
        indexes.add_view(self._file(text="abcd"))
        assert indexes.net_input_bytes == 4

    def test_remove_view_cleans_everything(self):
        indexes = IndexSet()
        view = self._file()
        indexes.add_view(view)
        indexes.remove_view(view.view_id)
        uri = view.view_id.uri
        assert uri not in indexes.name_index
        assert uri not in indexes.content_index
        assert indexes.tuple_index.tuple_of(uri) is None
        assert uri not in indexes.group_replica

    def test_infinite_content_windowed(self):
        def forever():
            while True:
                yield "a"

        view = ResourceView(
            "stream", content=ContentComponent.infinite(forever),
            view_id=ViewId("s", "x"),
        )
        indexes = IndexSet(infinite_content_window=100)
        indexes.add_view(view)
        assert indexes.net_input_bytes == 100

    def test_size_report_keys(self):
        indexes = IndexSet()
        assert set(indexes.size_report()) == {
            "name", "tuple", "content", "group"
        }

    def test_total_size(self):
        indexes = IndexSet()
        indexes.add_view(self._file())
        report = indexes.size_report()
        assert indexes.total_size_bytes() == sum(report.values())
