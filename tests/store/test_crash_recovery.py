"""Crash-recovery matrix: seeded kills at every phase of the WAL path.

The contract under test: after a kill at any point — before, during, or
after an fsync barrier, including mid-compaction — reopening the backend
recovers exactly a committed prefix of the pre-crash history (never a
state outside the append history, never a torn record applied), recovery
truncates the torn tail, and replay is idempotent.
"""

from __future__ import annotations

import pytest

from repro.core.storage import LocalStore, StoredReplica
from repro.netsim.faults import (
    CRASH_AFTER_FSYNC,
    CRASH_BEFORE_FSYNC,
    CRASH_PHASES,
    CRASH_TORN_FSYNC,
    StorageFaultPlan,
)
from repro.net.codec import WireCodec
from repro.security.certificates import FileCertificate
from repro.store import (
    SNAPSHOT_FILE,
    SimulatedCrash,
    Vfs,
    WAL_FILE,
    WalBackend,
    recover_state,
)


def make_certificate(fid, size=256):
    return FileCertificate(
        file_id=fid,
        content_hash=b"\x00" * 32,
        size=size,
        k=3,
        salt=fid * 7 + 1,
        creation_date=1,
        owner_public=b"owner-pub",
        signature=b"sig",
    )


def open_backend(tmp_path, **kwargs):
    kwargs.setdefault("node_id", 0xA)
    return WalBackend(tmp_path, **kwargs)


def fill(backend, n=6, start=0):
    for i in range(start, start + n):
        backend.note_store(make_certificate(i), diverted=(i % 2 == 1))
    backend.note_drop(start)
    backend.note_pointer(make_certificate(start + 100), 0xBEEF, True)
    backend.note_primary_flag(start + 100, False)


class TestCleanRestart:
    def test_reopen_recovers_identical_state(self, tmp_path):
        b = open_backend(tmp_path)
        fill(b)
        digest = b.state.state_digest(b.codec)
        seq = b.state.seq
        b.close()

        b2 = open_backend(tmp_path)
        assert b2.state.state_digest(b2.codec) == digest
        assert b2.state.seq == seq
        assert b2.recovery.truncated_bytes == 0
        assert not b2.recovery.violations

    def test_empty_directory_recovers_empty(self, tmp_path):
        b = open_backend(tmp_path)
        assert b.state.seq == 0
        assert not b.state.replicas and not b.state.pointers

    def test_store_reopen_restores_from_the_journal_and_leaves_it_alone(self, tmp_path):
        old = open_backend(tmp_path, sync_every=1)
        fill(old)
        old.crash()
        store = LocalStore(capacity=1 << 20)
        store.backend = old  # the killed process's handle is still attached
        store.primaries[77] = StoredReplica(make_certificate(77))  # RAM the kill lost

        reborn = open_backend(tmp_path, sync_every=1)
        seq = reborn.state.seq
        restored = store.reopen(reborn)

        assert store.backend is reborn
        assert restored == len(reborn.state.replicas) + len(reborn.state.pointers) == 6
        assert {
            fid: (r.certificate, r.diverted)
            for fid, r in {**store.primaries, **store.diverted_in}.items()
        } == reborn.state.replicas
        assert {
            fid: (p.certificate, p.target_id, p.primary)
            for fid, p in store.pointers.items()
        } == reborn.state.pointers
        assert set(store.diverted_in) == {
            fid for fid, (_, diverted) in reborn.state.replicas.items() if diverted
        }
        assert store.used == sum(c.size for c, _ in reborn.state.replicas.values())
        # Neither the wipe nor the restore wrote to (or destroyed) the journal.
        on_disk, _ = recover_state(Vfs(), tmp_path, truncate=False)
        assert on_disk.seq == reborn.state.seq == seq > 0


class TestKillPhaseMatrix:
    """Kill between operations in each phase; check the recovered prefix."""

    @pytest.mark.parametrize("phase", CRASH_PHASES)
    def test_recovered_state_is_a_committed_prefix(self, tmp_path, phase):
        plan = StorageFaultPlan(seed=99)
        b = open_backend(
            tmp_path, fault_plan=plan, sync_every=4, track_digests=True
        )
        fill(b, n=9)
        history = dict(b.digest_history)
        synced = b.synced_seq
        last = b.state.seq
        b.crash(phase)

        b2 = open_backend(tmp_path, fault_plan=plan)
        recovered = b2.state.state_digest(b2.codec)
        # The oracle: recovery lands somewhere in [synced_seq, last] of
        # the append history.  fsync is a lower bound, not an equality —
        # a torn flush can land complete records beyond the last barrier.
        window = {history[s] for s in range(synced, last + 1) if s in history}
        assert recovered in window
        assert b2.state.seq >= synced or not b2.state.replicas
        if phase == CRASH_AFTER_FSYNC:
            assert recovered == history[last]
        if phase == CRASH_BEFORE_FSYNC:
            assert recovered == history[synced]

    @pytest.mark.parametrize("phase", CRASH_PHASES)
    def test_double_replay_is_idempotent(self, tmp_path, phase):
        plan = StorageFaultPlan(seed=5)
        b = open_backend(tmp_path, fault_plan=plan, sync_every=3)
        fill(b, n=7)
        b.crash(phase)

        codec = WireCodec()
        s1, info1 = recover_state(Vfs(), tmp_path, codec, truncate=False)
        s2, info2 = recover_state(Vfs(), tmp_path, codec, truncate=False)
        assert s1.state_digest(codec) == s2.state_digest(codec)
        assert s1.seq == s2.seq
        assert info1.records_replayed == info2.records_replayed

    def test_torn_tail_is_truncated_on_recovery(self, tmp_path):
        plan = StorageFaultPlan(seed=12345)
        b = open_backend(tmp_path, fault_plan=plan, sync_every=100)
        fill(b, n=8)
        assert b._wal.pending > 0
        b.crash(CRASH_TORN_FSYNC)

        wal = tmp_path / WAL_FILE
        torn_size = wal.stat().st_size
        b2 = open_backend(tmp_path, fault_plan=plan)
        clean_size = wal.stat().st_size
        assert b2.recovery.truncated_bytes == torn_size - clean_size
        # A third recovery sees an already-clean log.
        b2.close()
        b3 = open_backend(tmp_path, fault_plan=plan)
        assert b3.recovery.truncated_bytes == 0


class TestExactBarrierKills:
    """CrashPoint-driven kills inside a single operation's I/O."""

    def test_kill_at_append_barrier_loses_only_that_record(self, tmp_path):
        plan = StorageFaultPlan(seed=3)
        b = open_backend(tmp_path, fault_plan=plan, track_digests=True)
        fill(b, n=4)
        committed = b.committed_digest
        plan.schedule_crash_point(b.node_id, b.vfs.barriers, CRASH_BEFORE_FSYNC)
        with pytest.raises(SimulatedCrash):
            b.note_drop(2)  # sync_every=1: the append fsyncs -> kill fires

        b2 = open_backend(tmp_path, fault_plan=plan)
        assert b2.state.state_digest(b2.codec) == committed
        assert 2 in b2.state.replicas  # the drop never became durable

    def test_kill_after_append_barrier_keeps_the_record(self, tmp_path):
        plan = StorageFaultPlan(seed=3)
        b = open_backend(tmp_path, fault_plan=plan)
        fill(b, n=4)
        plan.schedule_crash_point(b.node_id, b.vfs.barriers, CRASH_AFTER_FSYNC)
        with pytest.raises(SimulatedCrash):
            b.note_drop(2)

        b2 = open_backend(tmp_path, fault_plan=plan)
        assert 2 not in b2.state.replicas  # the barrier completed first

    def test_crash_point_fires_exactly_once(self, tmp_path):
        plan = StorageFaultPlan(seed=3)
        b = open_backend(tmp_path, fault_plan=plan)
        point = plan.schedule_crash_point(b.node_id, b.vfs.barriers)
        with pytest.raises(SimulatedCrash):
            b.note_store(make_certificate(1), False)
        assert point.fired
        assert plan.stats.crashes_injected == 1
        # Recovery and subsequent appends run on the same plan unharmed.
        b2 = open_backend(tmp_path, fault_plan=plan)
        b2.note_store(make_certificate(1), False)
        assert plan.stats.crashes_injected == 1


class TestMidCompactionKills:
    def loaded_backend(self, tmp_path, plan):
        b = open_backend(tmp_path, fault_plan=plan, track_digests=True)
        fill(b, n=6)
        return b

    def test_kill_before_snapshot_rename_keeps_old_wal(self, tmp_path):
        plan = StorageFaultPlan(seed=8)
        b = self.loaded_backend(tmp_path, plan)
        digest = b.state.state_digest(b.codec)
        # compact(): flush barrier, tmp-file barrier, then the rename
        # barrier — kill there, before the rename happens.
        plan.schedule_crash_point(b.node_id, b.vfs.barriers + 2, CRASH_BEFORE_FSYNC)
        with pytest.raises(SimulatedCrash):
            b.compact()
        assert not (tmp_path / SNAPSHOT_FILE).exists()

        b2 = open_backend(tmp_path, fault_plan=plan)
        assert b2.state.state_digest(b2.codec) == digest
        assert b2.recovery.snapshot_seq == 0  # recovered from the WAL alone

    def test_kill_after_snapshot_rename_skips_stale_wal_tail(self, tmp_path):
        plan = StorageFaultPlan(seed=8)
        b = self.loaded_backend(tmp_path, plan)
        digest = b.state.state_digest(b.codec)
        seq = b.state.seq
        plan.schedule_crash_point(b.node_id, b.vfs.barriers + 2, CRASH_AFTER_FSYNC)
        with pytest.raises(SimulatedCrash):
            b.compact()
        # Snapshot published, WAL not yet truncated: the stale tail must
        # be skipped by seq, not re-applied.
        assert (tmp_path / SNAPSHOT_FILE).exists()
        assert (tmp_path / WAL_FILE).stat().st_size > 0

        b2 = open_backend(tmp_path, fault_plan=plan)
        assert b2.state.state_digest(b2.codec) == digest
        assert b2.recovery.snapshot_seq == seq
        assert b2.recovery.records_replayed == 0
        assert b2.recovery.records_skipped > 0

    def test_periodic_compaction_preserves_state(self, tmp_path):
        b = open_backend(tmp_path, snapshot_every=5)
        fill(b, n=12)
        digest = b.state.state_digest(b.codec)
        b.close()
        b2 = open_backend(tmp_path)
        assert b2.state.state_digest(b2.codec) == digest
        assert b2.recovery.snapshot_seq > 0


class TestDiskModes:
    def test_readonly_disk_refuses_the_barrier(self, tmp_path):
        plan = StorageFaultPlan(seed=1)
        b = open_backend(tmp_path, fault_plan=plan)
        b.note_store(make_certificate(1), False)
        plan.set_disk_mode(b.node_id, "readonly")
        with pytest.raises(OSError):
            b.note_store(make_certificate(2), False)
        assert plan.stats.writes_refused >= 1

    def test_snapshot_corruption_falls_back_to_wal(self, tmp_path):
        b = open_backend(tmp_path, snapshot_every=4)
        fill(b, n=10)
        digest = b.state.state_digest(b.codec)
        b.close()
        snap = tmp_path / SNAPSHOT_FILE
        blob = bytearray(snap.read_bytes())
        blob[-1] ^= 0xFF
        snap.write_bytes(bytes(blob))
        # The log was truncated at the last compaction, so a corrupt
        # snapshot only recovers the records since then — recovery
        # reports the corruption loudly rather than inventing state.
        b2 = open_backend(tmp_path)
        assert b2.recovery.snapshot_corrupt
        assert b2.recovery.violations
        assert b2.state.state_digest(b2.codec) != digest


class TestWipe:
    def test_wipe_destroys_journal_and_state(self, tmp_path):
        b = open_backend(tmp_path)
        fill(b)
        b.note_wipe()
        assert not b.state.replicas and not b.state.pointers
        b.close()
        b2 = open_backend(tmp_path)
        assert not b2.state.replicas and not b2.state.pointers
        assert b2.state.seq == 0
