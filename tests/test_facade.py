"""Tests for the Dataspace facade."""

from datetime import datetime

import pytest

from repro.facade import Dataspace
from repro.imapsim import EmailMessage, ImapServer
from repro.imapsim.latency import no_latency
from repro.vfs import VirtualFileSystem


class TestConstruction:
    def test_empty_dataspace(self):
        dataspace = Dataspace()
        report = dataspace.sync()
        assert report.views_total == 0
        assert dataspace.view_count == 0

    def test_fs_only(self):
        fs = VirtualFileSystem()
        fs.write_file("/a.txt", "hello", parents=True)
        dataspace = Dataspace(vfs=fs)
        dataspace.sync()
        assert dataspace.view_count == 2  # root + file

    def test_imap_only(self):
        imap = ImapServer(latency=no_latency())
        imap.deliver("INBOX", EmailMessage(
            subject="hi", sender="a@b", to=("c@d",),
            date=datetime(2005, 1, 1), body="text",
        ))
        dataspace = Dataspace(imap=imap)
        dataspace.sync()
        assert dataspace.view_count == 2  # INBOX + message

    def test_generate_passthrough_kwargs(self):
        reference = datetime(2006, 9, 12)
        dataspace = Dataspace.generate(
            scale=0.001, imap_latency=no_latency(),
            reference_datetime=reference,
        )
        assert dataspace.processor.functions.reference == reference

    def test_demo_reproducible(self):
        a = Dataspace.demo(seed=9)
        b = Dataspace.demo(seed=9)
        assert a.sync().views_total == b.sync().views_total


class TestQuerying:
    def test_query_autosyncs(self):
        fs = VirtualFileSystem()
        fs.write_file("/x.txt", "needle content", parents=True)
        dataspace = Dataspace(vfs=fs)
        # no explicit sync()
        assert len(dataspace.query('"needle"')) == 1

    def test_explain(self):
        dataspace = Dataspace(vfs=VirtualFileSystem())
        assert "ContentSearch" in dataspace.explain('"x"')


class TestLifecycle:
    def test_watch_and_refresh(self):
        fs = VirtualFileSystem()
        fs.write_file("/seed.txt", "seed", parents=True)
        dataspace = Dataspace(vfs=fs)
        dataspace.sync()
        supported = dataspace.watch()
        assert supported["fs"] is True
        fs.write_file("/late.txt", "tardigrade facts")
        processed = dataspace.refresh()
        assert processed > 0
        assert len(dataspace.query('"tardigrade"')) == 1

    def test_resync_idempotent(self):
        dataspace = Dataspace.generate(scale=0.001,
                                       imap_latency=no_latency())
        first = dataspace.sync().views_total
        second = dataspace.sync().views_total
        assert first == second
        assert dataspace.view_count == first

    def test_index_sizes_shape(self):
        dataspace = Dataspace.generate(scale=0.001,
                                       imap_latency=no_latency())
        dataspace.sync()
        sizes = dataspace.index_sizes()
        assert sizes["total"] > 0
        assert sizes["net_input"] > 0


class TestPersistenceSurface:
    def _small(self):
        fs = VirtualFileSystem()
        fs.write_file("/a/notes.txt", "database tuning notes", parents=True)
        fs.write_file("/a/more.txt", "durable dataspace", parents=True)
        return Dataspace(vfs=fs)

    def test_durable_dataspace_reopens(self, tmp_path):
        fs = VirtualFileSystem()
        fs.write_file("/a/notes.txt", "database tuning notes", parents=True)
        with Dataspace(vfs=fs, durability=tmp_path / "space") as dataspace:
            dataspace.sync()
            count = dataspace.view_count
            hits = set(dataspace.query('"database"').uris())
        with Dataspace.open(tmp_path / "space") as reopened:
            assert reopened.view_count == count
            assert set(reopened.query('"database"').uris()) == hits
            assert reopened.last_recovery is not None

    def test_checkpoint_requires_durability(self):
        from repro.core.errors import DurabilityError
        with pytest.raises(DurabilityError):
            self._small().checkpoint()

    def test_durability_accepts_config_object(self, tmp_path):
        from repro.durability import DurabilityConfig
        dataspace = Dataspace(
            vfs=VirtualFileSystem(),
            durability=DurabilityConfig(directory=tmp_path / "d",
                                        fsync="off"),
        )
        assert dataspace.durability.wal.fsync_policy == "off"
        dataspace.close()
