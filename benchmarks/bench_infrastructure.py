"""Benchmarks for the infrastructure extensions: the persistence
snapshots that checkpoints write and recovery loads."""

from repro.rvm import ResourceViewManager
from repro.rvm.persistence import load_state, save_state


class TestPersistence:
    def test_save_speed(self, harness, benchmark, tmp_path_factory):
        rvm = harness.dataspace.rvm

        def save():
            return save_state(rvm, tmp_path_factory.mktemp("snap"))

        manifest = benchmark.pedantic(save, rounds=3, iterations=1)
        assert manifest["counts"]["catalog"] > 0

    def test_load_speed(self, harness, benchmark, tmp_path_factory):
        base = tmp_path_factory.mktemp("snapshot")
        save_state(harness.dataspace.rvm, base)

        def load():
            restored = ResourceViewManager()
            load_state(restored, base)
            return restored

        restored = benchmark.pedantic(load, rounds=3, iterations=1)
        assert len(restored.catalog) == len(harness.dataspace.rvm.catalog)

    def test_snapshot_smaller_than_live(self, harness, tmp_path):
        """The snapshot's on-disk size should be the same order as the
        in-memory accounting (sanity of both estimates)."""
        manifest = save_state(harness.dataspace.rvm, tmp_path)
        on_disk = sum(f.stat().st_size for f in tmp_path.iterdir())
        accounted = harness.dataspace.index_sizes()["total"]
        print(f"\nsnapshot bytes={on_disk} accounted bytes={accounted}")
        assert on_disk > 0
        assert 0.05 < on_disk / accounted < 20

