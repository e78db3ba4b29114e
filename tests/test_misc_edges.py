"""Edge cases across modules that the main suites do not reach."""

import pytest

from repro.core.errors import ParseError


class TestParseErrorLocations:
    def test_line_only(self):
        error = ParseError("boom", line=3)
        assert "line 3" in str(error)
        assert error.column is None

    def test_line_and_column(self):
        error = ParseError("boom", line=3, column=9)
        assert "line 3, column 9" in str(error)

    def test_no_location(self):
        assert str(ParseError("boom")) == "boom"


class TestXmlWriterEdges:
    def test_pi_without_data(self):
        from repro.xmlp import XmlPI, serialize
        assert serialize(XmlPI("target", "")) == "<?target?>"

    def test_pi_with_data(self):
        from repro.xmlp import XmlPI, serialize
        assert serialize(XmlPI("t", 'a="b"')) == '<?t a="b"?>'

    def test_epilog_preserved(self):
        from repro.xmlp import parse, serialize
        source = "<a/><!-- after -->"
        assert serialize(parse(source)) == source


class TestVfsEdges:
    def test_link_size_is_target_length(self):
        from repro.vfs import VirtualFileSystem
        fs = VirtualFileSystem()
        fs.mkdir("/t")
        fs.make_link("/l", "/t")
        assert fs.stat("/l")["size"] == len("/t")
        assert fs.stat("/l")["kind"] == "link"

    def test_root_stat(self):
        from repro.vfs import VirtualFileSystem
        fs = VirtualFileSystem()
        stat = fs.stat("/")
        assert stat["kind"] == "dir"
        assert stat["path"] == "/"

    def test_root_cannot_be_deleted(self):
        from repro.core.errors import VfsError
        from repro.vfs import VirtualFileSystem
        with pytest.raises(VfsError):
            VirtualFileSystem().delete("/")


class TestCliEdges:
    def test_unknown_command_exits(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestAnalyzerStopwordConstant:
    def test_default_index_keeps_stopwords(self):
        """The default analyzer indexes everything (see the module's
        rationale: phrase queries must not break on function words)."""
        from repro.fulltext import InvertedIndex, Phrase
        index = InvertedIndex()
        index.add("d", "to be or not to be")
        assert Phrase.of("to be or not to be").keys(index) == {"d"}


class TestCatalogChildCounts:
    def test_child_count_recorded_by_sync(self):
        from repro.rvm import ResourceViewManager
        from repro.rvm.plugins import FilesystemPlugin
        from repro.vfs import VirtualFileSystem
        fs = VirtualFileSystem()
        fs.write_file("/d/a.txt", "x", parents=True)
        fs.write_file("/d/b.txt", "y")
        rvm = ResourceViewManager()
        rvm.register_plugin(FilesystemPlugin(fs))
        rvm.sync_all()
        record = rvm.catalog.get("fs:///d")
        assert record.child_count == 2
        assert record.kind == "base"


class TestPushOperatorAttach:
    def test_attach_returns_unsubscribe(self):
        from repro.pushops import CollectSink, PushBus
        from repro.pushops.bus import ChangeEvent, ChangeKind, ComponentKind
        from repro.core.identity import ViewId
        bus = PushBus()
        sink = CollectSink()
        unsubscribe = sink.attach(bus)
        event = ChangeEvent(ViewId("x", "1"), ComponentKind.NAME,
                            ChangeKind.ADDED)
        bus.publish(event)
        unsubscribe()
        bus.publish(event)
        assert len(sink.items) == 1
