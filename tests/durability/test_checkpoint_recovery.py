"""Checkpoints, recovery, and the durable Dataspace surface.

The scenarios a durability layer lives for: reopen after clean close,
reopen with a WAL tail past the checkpoint, checkpoint garbage
collection, a hostile ``config.json``, and the engine ≡ oracle check on
recovered state.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core.errors import DurabilityError
from repro.dataset import TINY_PROFILE
from repro.durability import (
    DurabilityConfig,
    DurabilityManager,
    latest_checkpoint,
    standard_queries,
    verify_engine_matches_oracle,
)
from repro.durability.checkpoint import POINTER_NAME, checkpoint_path
from repro.durability.manager import PROTOTYPE_POLICY
from repro.facade import Dataspace
from repro.imapsim.latency import no_latency


def durable_tiny(directory, **kwargs):
    config = DurabilityConfig(directory=directory, fsync="off")
    return Dataspace.generate(profile=TINY_PROFILE, seed=7,
                              imap_latency=no_latency(),
                              durability=config, **kwargs)


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """A synced + checkpointed durable dataspace (left open, module-wide)."""
    directory = tmp_path_factory.mktemp("durable") / "space"
    dataspace = durable_tiny(directory)
    dataspace.sync()
    info = dataspace.checkpoint()
    return dataspace, directory, info


SPOT_QUERIES = [
    '"database"',
    '//*[class = "emailmessage"]',
    '[size > 1000]',
]


class TestCheckpoint:
    def test_checkpoint_records_wal_position(self, checkpointed):
        dataspace, directory, info = checkpointed
        assert info.lsn == dataspace.durability.wal.last_lsn
        assert info.manifest["wal_lsn"] == info.lsn
        assert (info.path / "manifest.json").exists()

    def test_pointer_names_the_checkpoint(self, checkpointed):
        _, directory, info = checkpointed
        assert int((directory / POINTER_NAME).read_text()) == info.lsn
        assert latest_checkpoint(directory) == (info.lsn, info.path)

    def test_requires_durability_manager(self):
        dataspace = Dataspace()
        with pytest.raises(DurabilityError):
            dataspace.checkpoint()

    def test_garbage_collection_keeps_newest(self, tmp_path):
        dataspace = durable_tiny(tmp_path / "space")
        dataspace.sync()
        manager = dataspace.durability
        infos = []
        for i in range(4):
            # one tiny mutation between checkpoints so LSNs advance
            manager.wal.append([{"t": "name", "uri": f"fs:///x{i}",
                                 "name": f"x{i}"}])
            infos.append(dataspace.checkpoint())
        survivors = sorted(tmp_path.glob("space/checkpoint-*"))
        assert len(survivors) == manager.checkpointer.keep
        assert checkpoint_path(manager.directory, infos[-1].lsn) in survivors
        dataspace.close()


class TestRecovery:
    def test_reopen_answers_queries_identically(self, checkpointed):
        dataspace, directory, _ = checkpointed
        reopened = Dataspace.open(directory, durable=False)
        for iql in SPOT_QUERIES:
            assert set(reopened.query(iql).uris()) \
                == set(dataspace.query(iql).uris()), iql
        assert reopened.index_sizes() == dataspace.index_sizes()

    def test_recovery_report_shape(self, checkpointed):
        dataspace, directory, info = checkpointed
        reopened = Dataspace.open(directory, durable=False)
        report = reopened.last_recovery
        assert report.from_checkpoint
        assert report.checkpoint_lsn == info.lsn
        assert report.views == dataspace.view_count
        assert "recovered" in report.summary()

    def test_wal_tail_past_checkpoint_replays(self, tmp_path):
        dataspace = durable_tiny(tmp_path / "space")
        dataspace.sync()
        dataspace.checkpoint()
        # mutate *after* the checkpoint: delete one indexed file
        victim = next(r.uri for r in dataspace.rvm.catalog.all_records()
                      if r.uri.startswith("fs://")
                      and r.class_name == "file")
        path = victim[len("fs://"):]
        dataspace.vfs.delete(path)
        dataspace.watch()
        dataspace.refresh()
        assert dataspace.rvm.catalog.get(victim) is None
        dataspace.close()

        reopened = Dataspace.open(tmp_path / "space", durable=False)
        assert reopened.last_recovery.frames_replayed > 0
        assert reopened.rvm.catalog.get(victim) is None
        assert reopened.view_count == dataspace.view_count

    def test_recovery_without_checkpoint_is_wal_only(self, tmp_path):
        dataspace = durable_tiny(tmp_path / "space")
        dataspace.sync()
        dataspace.close()
        reopened = Dataspace.open(tmp_path / "space", durable=False)
        assert not reopened.last_recovery.from_checkpoint
        assert reopened.view_count == dataspace.view_count
        assert set(reopened.query('"database"').uris()) \
            == set(dataspace.query('"database"').uris())

    @pytest.mark.parametrize("rewritten", ["", "\x00\x01\x02\x03" * 50],
                             ids=["empty", "binary"])
    def test_wal_only_replay_drops_postings_of_unindexed_rewrite(
            self, tmp_path, rewritten):
        dataspace = durable_tiny(tmp_path / "space")
        dataspace.sync()
        dataspace.watch()
        dataspace.vfs.write_file("/Projects/a.txt", "zzuniqueword hello")
        dataspace.refresh()
        dataspace.vfs.write_file("/Projects/a.txt", rewritten)
        dataspace.refresh()
        assert len(dataspace.query('"zzuniqueword"')) == 0
        dataspace.close()
        reopened = Dataspace.open(tmp_path / "space", durable=False)
        assert not reopened.last_recovery.from_checkpoint
        assert len(reopened.query('"zzuniqueword"')) == 0
        assert reopened.index_sizes() == dataspace.index_sizes()

    def test_durable_reopen_appends_at_recovered_tail(self, tmp_path):
        dataspace = durable_tiny(tmp_path / "space")
        dataspace.sync()
        tail = dataspace.durability.wal.last_lsn
        dataspace.close()
        with Dataspace.open(tmp_path / "space") as reopened:
            assert reopened.durability.wal.last_lsn == tail
            lsn = reopened.durability.wal.append(
                [{"t": "name", "uri": "fs:///new", "name": "new"}])
            assert lsn == tail + 1

    def test_malformed_catalog_payload_refused(self, tmp_path):
        dataspace = durable_tiny(tmp_path / "space")
        dataspace.sync()
        dataspace.durability.wal.append(
            [{"t": "cat", "uri": "fs:///new", "name": "new", "class": "file",
              "kind": "base", "size": "big", "children": 0}])
        dataspace.close()
        with pytest.raises(DurabilityError, match="size"):
            Dataspace.open(tmp_path / "space", durable=False)

    def test_policy_mismatch_refused(self, tmp_path):
        """A log written under query shipping (here: no content index)
        cannot be replayed into the four structures."""
        dataspace = durable_tiny(tmp_path / "space")
        dataspace.sync()
        dataspace.close()
        config = tmp_path / "space" / "config.json"
        recorded = json.loads(config.read_text())
        recorded["policy"]["index_content"] = False
        config.write_text(json.dumps(recorded))
        with pytest.raises(DurabilityError, match="policy"):
            DurabilityManager(Dataspace().rvm,
                              DurabilityConfig(directory=tmp_path / "space"))

    @pytest.mark.parametrize("document", [
        "{not json",
        "[]",
        '{"config_version": 1, "policy": "x"}',
        '{"config_version": 1}',
        '{"config_version": 99}',
        json.dumps({"config_version": 1,
                    "policy": {**PROTOTYPE_POLICY, "index_media": True}}),
    ], ids=["not-json", "array", "string-policy", "no-policy",
            "version-99", "media-policy"])
    @pytest.mark.parametrize("durable", [True, False])
    def test_hostile_config_is_a_typed_error(self, tmp_path, document,
                                             durable):
        directory = tmp_path / "space"
        directory.mkdir()
        (directory / "config.json").write_text(document)
        with pytest.raises(DurabilityError, match="config.json"):
            Dataspace.open(directory, durable=durable)

    def test_unreadable_pointer_raises(self, tmp_path):
        dataspace = durable_tiny(tmp_path / "space")
        dataspace.sync()
        dataspace.checkpoint()
        dataspace.close()
        (tmp_path / "space" / POINTER_NAME).write_text("not-a-number\n")
        with pytest.raises(DurabilityError):
            latest_checkpoint(tmp_path / "space")

    def test_stale_pointer_falls_back_to_scan(self, checkpointed):
        _, directory, info = checkpointed
        pointer = directory / POINTER_NAME
        original = pointer.read_text()
        try:
            # a crash between snapshot and pointer update leaves the
            # pointer naming a checkpoint that never materialized
            pointer.write_text(f"{info.lsn + 999}\n")
            assert latest_checkpoint(directory) == (info.lsn, info.path)
        finally:
            pointer.write_text(original)


class TestVerifyHarness:
    def test_generated_queries_are_deterministic(self):
        assert standard_queries(12, seed=3) == standard_queries(12, seed=3)
        assert standard_queries(12, seed=3) != standard_queries(12, seed=4)

    def test_recovered_engine_matches_oracle(self, checkpointed):
        _, directory, _ = checkpointed
        reopened = Dataspace.open(directory, durable=False)
        report = verify_engine_matches_oracle(reopened, count=15)
        assert report.ok, report.mismatches
        assert report.checked == 15
        assert "engine" in report.summary()


class TestDurabilityOverhead:
    def test_wal_covers_every_indexed_view(self, checkpointed):
        dataspace, _, _ = checkpointed
        assert dataspace.durability.wal.appends >= dataspace.view_count

    def test_config_json_round_trips(self, tmp_path):
        dataspace = durable_tiny(tmp_path / "space")
        raw = json.loads((tmp_path / "space" / "config.json").read_text())
        assert raw["config_version"] == 1
        assert set(raw["policy"]) == {
            "index_names", "index_content", "index_tuples",
            "replicate_groups", "index_media",
        }
        dataspace.close()

    def test_config_json_is_fsynced_before_it_is_renamed_in(
            self, tmp_path, monkeypatch):
        """Like the ``CHECKPOINT`` pointer: a crash cannot leave an
        empty ``config.json`` in place."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def replace(source, target):
            events.append(Path(target).name)
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        DurabilityManager(Dataspace().rvm, DurabilityConfig(
            directory=tmp_path / "space", fsync="off")).close()
        renamed = events.index("config.json")
        assert renamed > 0 and events[renamed - 1] == "fsync"
