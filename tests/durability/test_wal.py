"""Unit tests for the segmented write-ahead log.

Torn tails, CRC corruption, segment rotation, truncation and the fsync
policies — everything the WAL promises about surviving ill-timed
crashes, exercised by damaging real segment files.
"""

import functools
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.errors import DurabilityError
from repro.durability.wal import (
    FRAME_HEADER,
    FSYNC_POLICIES,
    WriteAheadLog,
    _first_lsn_of,
    _segment_name,
)


def unit(i):
    """A distinguishable single-record commit unit."""
    return [{"t": "name", "uri": f"fs:///f{i}", "name": f"file-{i}"}]


def replayed(wal, *, after_lsn=0):
    return list(wal.replay(after_lsn=after_lsn))


class TestAppendReplay:
    def test_lsns_are_monotonic_from_one(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert wal.last_lsn == 0
            assert [wal.append(unit(i)) for i in range(5)] == [1, 2, 3, 4, 5]
            assert wal.last_lsn == 5

    def test_replay_round_trips_payloads(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            for i in range(4):
                wal.append(unit(i))
            frames = replayed(wal)
        assert [lsn for lsn, _ in frames] == [1, 2, 3, 4]
        assert frames[2][1] == {"r": unit(2)}

    def test_replay_after_lsn_skips_prefix(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            for i in range(6):
                wal.append(unit(i))
            assert [lsn for lsn, _ in replayed(wal, after_lsn=4)] == [5, 6]

    def test_reopen_continues_lsn_sequence(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            wal.append(unit(0))
            wal.append(unit(1))
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert wal.last_lsn == 2
            assert wal.append(unit(2)) == 3
            assert [lsn for lsn, _ in replayed(wal)] == [1, 2, 3]

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        wal.close()
        with pytest.raises(DurabilityError):
            wal.append(unit(0))


class TestRotation:
    def test_segments_rotate_at_threshold(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off",
                           segment_max_bytes=256) as wal:
            for i in range(20):
                wal.append(unit(i))
            segments = wal._segments()
            assert len(segments) > 1
            assert wal.rotations == len(segments) - 1
            # each segment is named after its first frame's LSN
            firsts = [_first_lsn_of(p) for p in segments]
            assert firsts == sorted(firsts) and firsts[0] == 1
            assert [lsn for lsn, _ in replayed(wal)] == list(range(1, 21))

    def test_reopen_lands_in_last_segment(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off",
                           segment_max_bytes=256) as wal:
            for i in range(20):
                wal.append(unit(i))
        with WriteAheadLog(tmp_path, fsync="off",
                           segment_max_bytes=256) as wal:
            assert wal.last_lsn == 20
            wal.append(unit(20))
            assert [lsn for lsn, _ in replayed(wal)] == list(range(1, 22))


class TestTornTail:
    def test_partial_frame_is_truncated_on_open(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            for i in range(3):
                wal.append(unit(i))
            tail = wal._segments()[-1]
        # simulate a crash mid-append: half a frame header at the end
        with tail.open("ab") as handle:
            handle.write(b"\x07\x00\x00")
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert wal.last_lsn == 3
            assert wal.append(unit(3)) == 4
            assert [lsn for lsn, _ in replayed(wal)] == [1, 2, 3, 4]

    def test_crc_corrupt_final_frame_is_dropped(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            offsets = []
            for i in range(3):
                wal.append(unit(i))
                offsets.append(wal._handle.tell())
            tail = wal._segments()[-1]
        # flip one payload byte of the last frame
        with tail.open("r+b") as handle:
            handle.seek(offsets[1] + FRAME_HEADER.size + 5)
            byte = handle.read(1)
            handle.seek(-1, 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert wal.last_lsn == 2          # frame 3 fell to the CRC
            assert [lsn for lsn, _ in replayed(wal)] == [1, 2]

    def test_absurd_length_field_is_a_torn_tail(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            wal.append(unit(0))
            tail = wal._segments()[-1]
        with tail.open("ab") as handle:
            handle.write(FRAME_HEADER.pack(2, 2**31, 0))
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert wal.last_lsn == 1

    def test_corruption_in_non_final_segment_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off",
                           segment_max_bytes=256) as wal:
            for i in range(20):
                wal.append(unit(i))
            first = wal._segments()[0]
        # damage an *early* segment: intact frames provably follow, so
        # replay must refuse rather than silently lose them
        data = bytearray(first.read_bytes())
        data[FRAME_HEADER.size + 4] ^= 0xFF
        first.write_bytes(bytes(data))
        with WriteAheadLog(tmp_path, fsync="off",
                           segment_max_bytes=256) as wal:
            with pytest.raises(DurabilityError):
                replayed(wal)

    def test_empty_directory_opens_clean(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            assert wal.last_lsn == 0
            assert replayed(wal) == []


@functools.cache
def pristine_log():
    """A 30-frame log over six segments: ``(segment bytes by file name,
    the replayed frames)``, built once and copied per example."""
    with tempfile.TemporaryDirectory() as directory:
        with WriteAheadLog(directory, fsync="off",
                           segment_max_bytes=320) as wal:
            for i in range(30):
                wal.append(unit(i))
        with WriteAheadLog(directory, fsync="off") as wal:
            frames = replayed(wal)
            segments = {path.name: path.read_bytes()
                        for path in wal._segments()}
    assert len(segments) == 6 and len(frames) == 30
    return segments, frames


class TestByteFlipFuzz:
    """One flipped bit anywhere in a multi-segment log is never lost
    silently: a damaged non-final segment refuses replay, a damaged
    final segment is truncated (and the repair counted), and no replay
    yields a frame that differs from what was appended."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_bit_flip(self, data):
        segments, frames = pristine_log()
        names = sorted(segments)
        victim = data.draw(st.sampled_from(names), label="segment")
        offset = data.draw(
            st.integers(0, len(segments[victim]) - 1), label="offset")
        bit = data.draw(st.integers(0, 7), label="bit")
        with tempfile.TemporaryDirectory() as directory:
            for name, blob in segments.items():
                if name == victim:
                    blob = bytearray(blob)
                    blob[offset] ^= 1 << bit
                Path(directory, name).write_bytes(blob)
            truncations = obs.global_metrics().snapshot().get(
                "wal.torn_tail_truncations", 0)
            got = []
            with WriteAheadLog(directory, fsync="off") as wal:
                try:
                    got.extend(wal.replay())
                except DurabilityError:
                    refused = True
                else:
                    refused = False
            repaired = obs.global_metrics().snapshot().get(
                "wal.torn_tail_truncations", 0) - truncations
        assert got == frames[:len(got)]  # nothing replays changed
        if victim != names[-1]:
            assert refused and repaired == 0
        else:
            assert not refused and len(got) < len(frames)
            assert repaired == 1


class TestTruncation:
    def test_covered_segments_are_deleted(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off",
                           segment_max_bytes=256) as wal:
            for i in range(20):
                wal.append(unit(i))
            before = wal._segments()
            assert len(before) > 2
            cut = _first_lsn_of(before[-1]) - 1   # everything before tail
            removed = wal.truncate_through(cut)
            assert removed == len(before) - 1
            assert [lsn for lsn, _ in replayed(wal)] \
                == list(range(cut + 1, 21))

    def test_active_tail_always_survives(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            for i in range(5):
                wal.append(unit(i))
            assert wal.truncate_through(wal.last_lsn) == 0
            assert len(wal._segments()) == 1
            wal.append(unit(5))
            assert [lsn for lsn, _ in replayed(wal)] == list(range(1, 7))

    def test_partial_coverage_keeps_segment(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off",
                           segment_max_bytes=256) as wal:
            for i in range(20):
                wal.append(unit(i))
            second_first = _first_lsn_of(wal._segments()[1])
            # lsn inside the second segment: only the first is covered
            assert wal.truncate_through(second_first) == 1
            assert [lsn for lsn, _ in replayed(wal)] \
                == list(range(second_first, 21))


class TestFsyncPolicies:
    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(DurabilityError):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_always_fsyncs_every_append(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="always") as wal:
            for i in range(5):
                wal.append(unit(i))
            assert wal.fsyncs == 5

    def test_off_never_fsyncs_until_forced(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as wal:
            for i in range(5):
                wal.append(unit(i))
            assert wal.fsyncs == 0
            wal.sync()
            assert wal.fsyncs == 1

    def test_interval_bounds_fsync_rate(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="interval",
                           fsync_interval_seconds=3600.0) as wal:
            for i in range(50):
                wal.append(unit(i))
            assert wal.fsyncs <= 1

    def test_policies_tuple_is_exhaustive(self, tmp_path):
        for policy in FSYNC_POLICIES:
            WriteAheadLog(tmp_path / policy, fsync=policy).close()


class TestFraming:
    def test_header_layout_is_stable(self):
        # the on-disk format: little-endian u64 lsn, u32 length, u32 crc
        assert FRAME_HEADER.size == 16
        assert FRAME_HEADER.pack(1, 2, 3) == struct.pack("<QII", 1, 2, 3)

    def test_segment_names_sort_with_lsns(self):
        names = [_segment_name(lsn) for lsn in (1, 9, 10, 11, 100, 10**15)]
        assert names == sorted(names)
        assert all(_first_lsn_of(__import__("pathlib").Path(n)) == lsn
                   for n, lsn in zip(names, (1, 9, 10, 11, 100, 10**15)))
