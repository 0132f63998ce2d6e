"""Unit tests for the deterministic fault-injection plane."""

import random

import pytest

from repro.netsim.faults import (
    NEVER,
    CrashEvent,
    FaultPlan,
    Partition,
    Transmission,
)


class TestDeterminism:
    def test_same_seed_same_verdicts(self):
        def drive(plan):
            out = []
            for i in range(200):
                out.append(plan.transmit(i % 7, (i + 1) % 7))
            return out

        a = drive(FaultPlan(seed=42, loss=0.3, delay_mean=0.5, duplicate=0.1))
        b = drive(FaultPlan(seed=42, loss=0.3, delay_mean=0.5, duplicate=0.1))
        assert a == b

    def test_different_seeds_diverge(self):
        a = FaultPlan(seed=1, loss=0.5)
        b = FaultPlan(seed=2, loss=0.5)
        verdicts_a = [a.transmit(0, 1).lost for _ in range(100)]
        verdicts_b = [b.transmit(0, 1).lost for _ in range(100)]
        assert verdicts_a != verdicts_b

    def test_injecting_nothing_draws_nothing(self):
        """A no-op plan must not consume RNG state (zero-cost property)."""
        plan = FaultPlan(seed=9)
        state = plan.rng.getstate()
        for i in range(50):
            tx = plan.transmit(i, i + 1)
            assert tx == Transmission()
            assert not plan.rpc_lost(i, i + 1)
            assert not plan.probe_lost(i, i + 1)
        assert plan.rng.getstate() == state


class TestLoss:
    def test_certain_loss(self):
        plan = FaultPlan(seed=0, loss=1.0)
        assert all(plan.transmit(0, 1).lost for _ in range(20))
        assert plan.stats.messages_lost == 20

    def test_rpc_faces_loss_both_ways(self):
        """The request and then the reply each draw once: a request
        that survives can still lose its reply."""
        plan = FaultPlan(seed=0, loss=0.5)
        mirror = random.Random(0)
        lost = reply_losses = 0
        for _ in range(100):
            if mirror.random() < 0.5:
                assert plan.rpc_lost(1, 2)  # request lost: one draw
                lost += 1
            else:
                reply_lost = mirror.random() < 0.5
                assert plan.rpc_lost(1, 2) == reply_lost
                lost += reply_lost
                reply_losses += reply_lost
        assert reply_losses > 0
        assert plan.stats.rpcs_lost == lost
        assert plan.rng.getstate() == mirror.getstate()

    def test_probe_loss_counted_separately(self):
        plan = FaultPlan(seed=0, loss=1.0)
        assert plan.probe_lost(1, 2)
        assert plan.stats.probes_lost == 1
        assert plan.stats.rpcs_lost == 0


class TestDelayAndDuplication:
    def test_delay_injected_and_counted(self):
        plan = FaultPlan(seed=5, delay_mean=0.5)
        tx = plan.transmit(0, 1)
        assert tx.delay > 0.0 and not tx.lost
        assert plan.stats.delays_injected == 1
        assert plan.stats.delay_total == pytest.approx(tx.delay)

    def test_certain_duplication(self):
        plan = FaultPlan(seed=5, duplicate=1.0)
        tx = plan.transmit(0, 1)
        assert tx.duplicate and not tx.lost
        assert plan.stats.duplicates == 1


class TestPartitions:
    def test_severs_only_across_cut_within_window(self):
        p = Partition(start=2.0, end=5.0, group=frozenset({1, 2}))
        assert p.severs(1, 3, 3.0) and p.severs(3, 1, 3.0)
        assert not p.severs(1, 2, 3.0)  # same side
        assert not p.severs(3, 4, 3.0)  # same (other) side
        assert not p.severs(1, 3, 1.9)  # before
        assert not p.severs(1, 3, 5.0)  # healed (end-exclusive)

    def test_plan_consults_bound_clock(self):
        clock = {"now": 0.0}
        plan = FaultPlan(seed=0).bind_clock(lambda: clock["now"])
        plan.add_partition(at=1.0, heal_at=4.0, group=[1])
        assert not plan.transmit(1, 2).lost
        clock["now"] = 2.0
        assert plan.transmit(1, 2).lost
        assert plan.rpc_lost(1, 2)
        assert plan.stats.partition_drops == 1
        clock["now"] = 4.0
        assert not plan.transmit(1, 2).lost

    def test_never_heals(self):
        clock = {"now": 0.0}
        plan = FaultPlan(seed=0).bind_clock(lambda: clock["now"])
        plan.add_partition(at=0.0, heal_at=NEVER, group=[1])
        clock["now"] = 1e9
        assert plan.transmit(1, 2).lost


class TestCrashSchedule:
    def test_single_crash_event(self):
        plan = FaultPlan(seed=0)
        ev = plan.schedule_crash(2.0, 9, restart_at=8.0, wipe_disk=True)
        assert ev == CrashEvent(2.0, 9, 8.0, True)
        assert plan.crashes == [ev]

    def test_storm_is_ordered_and_seeded(self):
        a = FaultPlan(seed=3)
        b = FaultPlan(seed=3)
        ids = [10, 20, 30, 40]
        storm_a = a.schedule_crash_storm(ids, start=1.0, interarrival=5.0,
                                         restart_after=2.0, wipe_disk=True)
        storm_b = b.schedule_crash_storm(ids, start=1.0, interarrival=5.0,
                                         restart_after=2.0, wipe_disk=True)
        assert storm_a == storm_b  # same seed, same schedule
        times = [e.time for e in storm_a]
        assert times == sorted(times) and times[0] > 1.0
        assert all(e.restart_at == pytest.approx(e.time + 2.0) for e in storm_a)
        assert [e.node_id for e in storm_a] == ids


class TestValidation:
    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(loss=1.5)
        with pytest.raises(ValueError):
            FaultPlan(duplicate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(delay_mean=-1.0)

    def test_bad_schedules_rejected(self):
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.add_partition(at=5.0, heal_at=2.0, group=[1])
        with pytest.raises(ValueError):
            plan.schedule_crash(5.0, 1, restart_at=2.0)
        with pytest.raises(ValueError):
            plan.schedule_crash_storm([1], start=0.0, interarrival=0.0)
