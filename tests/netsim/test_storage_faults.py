"""Unit tests for the deterministic storage (disk) fault plane."""

import pytest

from repro.netsim.faults import (
    DISK_OK,
    DISK_READONLY,
    READ_CORRUPT,
    READ_OK,
    StorageFaultPlan,
)


class TestDeterminism:
    def test_same_seed_same_verdicts(self):
        def drive(plan):
            out = []
            for i in range(200):
                out.append(plan.read(i % 5, i % 11, 4096, 1.0))
            return out

        a = drive(StorageFaultPlan(seed=42, bitrot_rate=1e-4))
        b = drive(StorageFaultPlan(seed=42, bitrot_rate=1e-4))
        assert a == b and READ_CORRUPT in a

    def test_different_seeds_diverge(self):
        a = StorageFaultPlan(seed=1, bitrot_rate=1e-4)
        b = StorageFaultPlan(seed=2, bitrot_rate=1e-4)
        va = [a.read(0, i, 4096, 5.0) for i in range(100)]
        vb = [b.read(0, i, 4096, 5.0) for i in range(100)]
        assert va != vb

    def test_zero_rate_plan_draws_nothing(self):
        """All-zero rates must not consume RNG state (zero-cost bar)."""
        plan = StorageFaultPlan(seed=9)
        state = plan.rng.getstate()
        for i in range(50):
            assert plan.read(i, i + 1, 4096, 10.0) == READ_OK
            assert plan.writable(i)
        assert plan.rng.getstate() == state

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            StorageFaultPlan(bitrot_rate=-1e-6)


class TestBitRot:
    def test_certain_rot_is_sticky_until_repaired(self):
        # Hazard so large the first exposed read must rot the copy.
        plan = StorageFaultPlan(seed=0, bitrot_rate=100.0)
        assert plan.read(1, 7, 4096, 1.0) == READ_CORRUPT
        assert plan.stats.bitrot_corruptions == 1
        # Sticky: further reads report corruption without new draws.
        state = plan.rng.getstate()
        assert plan.read(1, 7, 4096, 0.0) == READ_CORRUPT
        assert plan.rng.getstate() == state
        assert plan.stats.bitrot_corruptions == 1  # counted once
        plan.mark_repaired(1, 7)
        assert plan.read(1, 7, 4096, 0.0) == READ_OK

    def test_zero_elapsed_cannot_rot(self):
        plan = StorageFaultPlan(seed=0, bitrot_rate=100.0)
        state = plan.rng.getstate()
        assert plan.read(1, 7, 4096, 0.0) == READ_OK
        assert plan.rng.getstate() == state

    def test_forget_clears_corruption_record(self):
        plan = StorageFaultPlan(seed=0, bitrot_rate=100.0)
        assert plan.read(1, 7, 4096, 1.0) == READ_CORRUPT
        plan.forget(1, 7)
        assert not plan.is_corrupt(1, 7)

    def test_forget_node_wipes_all_its_records(self):
        plan = StorageFaultPlan(seed=0, bitrot_rate=100.0)
        plan.read(1, 7, 4096, 1.0)
        plan.read(1, 8, 4096, 1.0)
        plan.read(2, 7, 4096, 1.0)
        plan.forget_node(1)
        assert not plan.is_corrupt(1, 7) and not plan.is_corrupt(1, 8)
        assert plan.is_corrupt(2, 7)


class TestDiskModes:
    def test_readonly_refuses_writes_but_reads_fine(self):
        plan = StorageFaultPlan(seed=0)
        plan.set_disk_mode(4, DISK_READONLY)
        assert not plan.writable(4)
        assert plan.writable(5)
        plan.refuse_write(4)
        assert plan.stats.writes_refused == 1
        assert plan.read(4, 1, 1024, 5.0) == READ_OK

    def test_scheduled_mode_applies_lazily_by_clock(self):
        now = {"t": 0.0}
        plan = StorageFaultPlan(seed=0).bind_clock(lambda: now["t"])
        plan.schedule_disk_mode(3.0, 4, DISK_READONLY)
        plan.schedule_disk_mode(7.0, 4, DISK_OK)
        assert plan.disk_mode(4) == DISK_OK
        now["t"] = 3.0
        assert plan.disk_mode(4) == DISK_READONLY
        now["t"] = 7.5
        assert plan.disk_mode(4) == DISK_OK

    def test_later_immediate_mode_beats_earlier_scheduled_one(self):
        now = {"t": 0.0}
        plan = StorageFaultPlan(seed=0).bind_clock(lambda: now["t"])
        plan.schedule_disk_mode(3.0, 4, DISK_READONLY)
        now["t"] = 5.0
        assert plan.disk_mode(4) == DISK_READONLY
        plan.set_disk_mode(4, DISK_OK)
        assert plan.disk_mode(4) == DISK_OK
        assert plan.writable(4)
        # A transition scheduled after the immediate one still applies.
        plan.schedule_disk_mode(8.0, 4, DISK_READONLY)
        now["t"] = 8.0
        assert plan.disk_mode(4) == DISK_READONLY

    def test_unknown_mode_rejected(self):
        plan = StorageFaultPlan(seed=0)
        with pytest.raises(ValueError):
            plan.set_disk_mode(1, "melted")
        with pytest.raises(ValueError):
            plan.schedule_disk_mode(1.0, 1, "melted")
