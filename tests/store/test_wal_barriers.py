"""What a WAL barrier costs: one fsync, and no hash of the store.

With ``sync_every=1`` every journaled mutation is one fsync barrier.
The barrier must not re-hash the node's whole ``StoreState`` (that made
each record linear in the certificates a node holds); state digests are
computed only for the crash-restart oracle, under ``track_digests``.
Neither guarantee may be bought with the other: the barrier count and
the real ``os.fsync`` count per record are pinned too.
"""

from __future__ import annotations

import pytest

import repro.store.vfs as vfs_module
from repro.security.certificates import FileCertificate
from repro.store import StoreState, WalBackend

#: The unpatched digest, for recomputing without being counted.
fresh_digest = StoreState.state_digest

#: Barriers a compaction adds after the record that triggered it: the
#: WAL flush, the snapshot temp file, the rename, the WAL truncate.
COMPACTION_BARRIERS = 4


def make_certificate(fid):
    return FileCertificate(
        file_id=fid,
        content_hash=b"\x00" * 32,
        size=256,
        k=3,
        salt=fid * 7 + 1,
        creation_date=1,
        owner_public=b"owner-pub",
        signature=b"sig",
    )


@pytest.fixture
def digest_calls(monkeypatch):
    """Every ``StoreState.state_digest`` call, by the seq it hashed."""
    calls = []

    def counting(self, codec=None):
        calls.append(self.seq)
        return fresh_digest(self, codec)

    monkeypatch.setattr(StoreState, "state_digest", counting)
    return calls


@pytest.fixture
def compactions(monkeypatch):
    original = WalBackend.compact
    done = []

    def counting(self):
        done.append(self.state.seq)
        return original(self)

    monkeypatch.setattr(WalBackend, "compact", counting)
    return done


def drive(backend, check=lambda: None):
    """50 stores, 10 drops, a wipe, close; ``check`` after each record."""
    for fid in range(50):
        backend.note_store(make_certificate(fid), diverted=(fid % 3 == 0))
        check()
    for fid in range(10):
        backend.note_drop(fid)
        check()
    backend.note_wipe()
    check()
    backend.close()


class TestNoHashOnTheWritePath:
    def test_untracked_backend_never_hashes_the_store(
        self, tmp_path, digest_calls, compactions
    ):
        b = WalBackend(tmp_path, sync_every=1, snapshot_every=16)
        drive(b)
        assert len(compactions) >= 2
        assert digest_calls == []

    def test_tracked_backend_hashes_once_per_record(
        self, tmp_path, digest_calls, compactions
    ):
        b = WalBackend(tmp_path, sync_every=1, snapshot_every=16, track_digests=True)
        assert len(digest_calls) == 1  # the opening state

        def check():
            seq = b.state.seq
            assert b.digest_history[seq] == fresh_digest(b.state, b.codec)

        drive(b, check)
        assert len(compactions) >= 2
        # One at open, one per applied record (60), one at the wipe.
        assert len(digest_calls) == 1 + 60 + 1


class TestEveryRecordStillFsyncs:
    def test_each_record_is_one_barrier_and_one_fsync(self, tmp_path, monkeypatch):
        real_fsync = vfs_module.os.fsync
        fsyncs = []

        def counting(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(vfs_module.os, "fsync", counting)
        b = WalBackend(tmp_path, sync_every=1, snapshot_every=16)
        notes = [
            lambda i: b.note_store(make_certificate(i), diverted=False),
            lambda i: b.note_pointer(make_certificate(1000 + i), 0xBEEF, True),
            lambda i: b.note_primary_flag(1000 + i, False),
            lambda i: b.note_drop_pointer(1000 + i),
            lambda i: b.note_drop(i),
        ]
        compacted = 0
        for i in range(10):
            for note in notes:
                barriers, calls = b.vfs.barriers, len(fsyncs)
                since = b._since_snapshot
                note(i)
                expected = 1
                if since + 1 >= b.snapshot_every:
                    expected += COMPACTION_BARRIERS
                    compacted += 1
                assert b.vfs.barriers - barriers == expected
                assert len(fsyncs) - calls == expected
        assert compacted >= 2
        b.close()
