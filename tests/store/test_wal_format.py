"""On-disk WAL format: golden bytes, frame scan, snapshot roundtrip.

The record format is a compatibility surface — a WAL written by one
build must replay on the next — so the exact bytes of one record of
each op are pinned here.  If any of these assertions moves, the change
broke every existing log on disk; bump a format version instead.
"""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.net.codec import WireCodec
from repro.store.recovery import recover_state
from repro.store.wal import WAL_FILE
from repro.security.certificates import FileCertificate
from repro.store import (
    SNAPSHOT_FILE,
    StoreState,
    Vfs,
    frame_record,
    load_snapshot,
    scan_frames,
    write_snapshot,
)

HEADER = struct.Struct(">II")


@pytest.fixture(scope="module")
def codec():
    return WireCodec()


def make_certificate(fid=0x1234, size=4096):
    return FileCertificate(
        file_id=fid,
        content_hash=b"\x00" * 32,
        size=size,
        k=3,
        salt=77,
        creation_date=12,
        owner_public=b"owner-pub",
        signature=b"sig",
    )


class TestGoldenRecordBytes:
    """One pinned record per op — the on-disk compatibility contract."""

    def test_drop_record(self, codec):
        frame = frame_record(codec.encode([7, "drop", 0x1234]))
        assert frame.hex() == (
            "0000001b7e1518c06c00000003690000000107730000000464726f7069000000021234"
        )

    def test_primary_flag_record(self, codec):
        frame = frame_record(codec.encode([3, "primary-flag", 0x1234, False]))
        assert frame.hex() == (
            "000000243412a6436c00000004690000000103730000000c"
            "7072696d6172792d666c61676900000002123446"
        )

    def test_wipe_record(self, codec):
        frame = frame_record(codec.encode([4, "wipe"]))
        assert frame.hex() == "0000001417c983556c00000002690000000104730000000477697065"

    def test_drop_pointer_record(self, codec):
        frame = frame_record(codec.encode([5, "drop-pointer", 0x1234]))
        assert frame.hex() == (
            "000000232ce069196c00000003690000000105730000000c"
            "64726f702d706f696e74657269000000021234"
        )

    def test_store_record_digest(self, codec):
        # Certificate-bearing records are longer; pin length + sha256.
        import hashlib

        frame = frame_record(codec.encode([1, "store", make_certificate(), False]))
        assert len(frame) == 126
        assert hashlib.sha256(frame).hexdigest() == (
            "0555ce65a6d9959e0f8599419b879c9329a215a1f2449d83c02cd8868372c338"
        )

    def test_pointer_record_digest(self, codec):
        import hashlib

        frame = frame_record(
            codec.encode([2, "pointer", make_certificate(), 0xBEEF, True])
        )
        assert len(frame) == 136
        assert hashlib.sha256(frame).hexdigest() == (
            "c2315327705b4e79a9df936e12ea41004836fafe83086506d379e819d4fd9b4b"
        )

    def test_header_layout(self, codec):
        payload = codec.encode([9, "drop", 1])
        frame = frame_record(payload)
        length, crc = HEADER.unpack_from(frame, 0)
        assert length == len(payload)
        assert crc == zlib.crc32(payload) & 0xFFFFFFFF
        assert frame[HEADER.size:] == payload


class TestScanFrames:
    def frames_of(self, codec, *records):
        return b"".join(frame_record(codec.encode(list(r))) for r in records)

    def test_clean_log(self, codec):
        blob = self.frames_of(codec, [1, "drop", 10], [2, "drop", 11])
        frames, clean = scan_frames(blob)
        assert clean == len(blob)
        assert [codec.decode(p)[0] for _off, p in frames] == [1, 2]
        # Offsets name the start of each frame.
        assert frames[0][0] == 0
        assert frames[1][0] == len(frame_record(codec.encode([1, "drop", 10])))

    def test_torn_header_truncates(self, codec):
        good = self.frames_of(codec, [1, "drop", 10])
        blob = good + b"\x00\x00\x07"  # 3 bytes of a next header
        frames, clean = scan_frames(blob)
        assert clean == len(good)
        assert len(frames) == 1

    def test_torn_payload_truncates(self, codec):
        good = self.frames_of(codec, [1, "drop", 10])
        second = frame_record(codec.encode([2, "drop", 11]))
        blob = good + second[: len(second) - 4]
        frames, clean = scan_frames(blob)
        assert clean == len(good)
        assert len(frames) == 1

    def test_corrupt_record_truncates(self, codec):
        good = self.frames_of(codec, [1, "drop", 10])
        second = bytearray(frame_record(codec.encode([2, "drop", 11])))
        second[-1] ^= 0xFF  # payload byte flip -> crc mismatch
        frames, clean = scan_frames(bytes(good + second))
        assert clean == len(good)
        assert len(frames) == 1

    def test_corruption_hides_later_records(self, codec):
        first = frame_record(codec.encode([1, "drop", 10]))
        second = bytearray(frame_record(codec.encode([2, "drop", 11])))
        second[HEADER.size] ^= 0x01
        third = frame_record(codec.encode([3, "drop", 12]))
        frames, clean = scan_frames(bytes(first) + bytes(second) + third)
        # Everything after the first bad record is untrusted, even if it
        # would checksum on its own.
        assert clean == len(first)
        assert len(frames) == 1

    def test_empty_log(self):
        frames, clean = scan_frames(b"")
        assert frames == [] and clean == 0


class TestSnapshotRoundtrip:
    def test_roundtrip(self, tmp_path, codec):
        state = StoreState()
        state.apply([1, "store", make_certificate(1), False])
        state.apply([2, "store", make_certificate(2, size=64), True])
        state.apply([3, "pointer", make_certificate(3), 0xAB, False])
        vfs = Vfs()
        write_snapshot(vfs, tmp_path, state, codec)
        loaded = load_snapshot(vfs, tmp_path / SNAPSHOT_FILE, codec)
        assert loaded is not None
        assert loaded.seq == 3
        assert loaded.state_digest(codec) == state.state_digest(codec)
        assert loaded.replicas[2][1] is True  # diverted flag survives
        assert loaded.pointers[3][1] == 0xAB

    def test_corrupt_snapshot_returns_none(self, tmp_path, codec):
        state = StoreState()
        state.apply([1, "store", make_certificate(1), False])
        vfs = Vfs()
        path = write_snapshot(vfs, tmp_path, state, codec)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert load_snapshot(vfs, path, codec) is None

    def test_truncated_snapshot_returns_none(self, tmp_path, codec):
        state = StoreState()
        state.apply([1, "store", make_certificate(1), False])
        vfs = Vfs()
        path = write_snapshot(vfs, tmp_path, state, codec)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert load_snapshot(vfs, path, codec) is None

    def test_trailing_garbage_returns_none(self, tmp_path, codec):
        # A snapshot must be exactly one frame; anything else is corrupt.
        state = StoreState()
        vfs = Vfs()
        path = write_snapshot(vfs, tmp_path, state, codec)
        path.write_bytes(path.read_bytes() + b"junk")
        assert load_snapshot(vfs, path, codec) is None


class TestUndecodableRecord:
    def test_valid_crc_over_a_set_of_a_list_truncates_the_log(self, tmp_path, codec):
        """A record that checksums but decodes to an unhashable set is
        cut off like a torn one, not raised out of recovery."""
        good = frame_record(codec.encode([1, "drop", 10]))
        bad = frame_record(b"e\x00\x00\x00\x01l\x00\x00\x00\x00")
        (tmp_path / WAL_FILE).write_bytes(good + bad)
        state, info = recover_state(Vfs(), tmp_path)
        assert state.seq == 1 and info.records_replayed == 1
        assert info.violations == [f"undecodable WAL record at offset {len(good)}"]
        assert info.truncated_bytes == len(bad)
        assert (tmp_path / WAL_FILE).read_bytes() == good
