"""Unit and parity tests for the wire-level fault plan.

The contract under test: a :class:`WireFaultPlan` and a sim
:class:`FaultPlan` built from the same :class:`FaultSpec` make identical
loss/partition decisions — same RNG stream, same draw order — and every
wire-only feature (mid-frame resets) draws from a separate stream so
enabling it cannot shift the shared verdicts.
"""

import random

import pytest

from repro.net import WireFaultPlan, WireStats, decision_parity
from repro.net.faults import parity_script, verdict_sequence
from repro.netsim import FaultSpec
from repro.netsim.faults import CrashEvent, FaultPlan

IDS = tuple(range(1, 11))

ADVERSE = FaultSpec(
    seed=42,
    loss=0.15,
    delay_mean=0.002,
    duplicate=0.05,
    partitions=((2.0, 6.0, (1, 2, 3)), (7.0, 9.0, (4, 5, 6, 7))),
    crashes=((1.0, 4, 3.0, False), (2.0, 5, None, True)),
)


class TestDecisionParity:
    def test_engines_agree_under_full_adversity(self):
        report = decision_parity(ADVERSE, IDS, length=512, reset=0.5)
        assert report["ok"] is True
        assert report["first_divergence"] is None
        assert report["legs"] == 512
        assert report["losses"] > 0
        assert report["partition_drops"] > 0

    def test_resets_do_not_perturb_the_shared_stream(self):
        """Wire-only reset draws come from their own RNG: the verdict
        kind sequence is identical with resets off and cranked to 1.0."""
        script = parity_script(ADVERSE, IDS, length=512)
        quiet = verdict_sequence(WireFaultPlan(ADVERSE, reset=0.0), script)
        noisy = verdict_sequence(WireFaultPlan(ADVERSE, reset=1.0), script)
        assert quiet == noisy

    def test_spec_build_plan_is_from_spec(self):
        script = parity_script(ADVERSE, IDS, length=256)
        assert verdict_sequence(ADVERSE.build_plan(), script) == verdict_sequence(
            FaultPlan.from_spec(ADVERSE), script
        )

    def test_quiet_plan_draws_nothing(self):
        """A plan injecting nothing consumes no randomness per decision
        (the zero-cost invariant the sim plane already pins)."""
        plan = WireFaultPlan(FaultSpec(seed=9))
        plan.bind_clock(lambda: 0.0)
        link_state = plan.link.rng.getstate()
        wire_state = plan.wire_rng.getstate()
        for src in IDS[:4]:
            verdict = plan.decide(src, src + 1)
            assert verdict.kind == "ok"
            assert not verdict.reset and verdict.delay == 0.0
        assert plan.link.rng.getstate() == link_state
        assert plan.wire_rng.getstate() == wire_state


class TestWireFaultPlan:
    def test_reset_counter_and_kind(self):
        plan = WireFaultPlan(FaultSpec(seed=9), reset=1.0)
        plan.bind_clock(lambda: 0.0)
        verdict = plan.decide(1, 2)
        assert verdict.reset is True
        # Resets are wire-only; the parity-relevant kind stays "ok".
        assert verdict.kind == "ok"
        assert plan.resets_injected == 1
        assert plan.injected_snapshot()["resets"] == 1

    def test_partition_verdict_kind(self):
        spec = FaultSpec(seed=9, partitions=((0.0, 5.0, (1, 2)),))
        plan = WireFaultPlan(spec)
        clock = {"now": 1.0}
        plan.bind_clock(lambda: clock["now"])
        assert plan.decide(1, 5).kind == "partition"
        assert plan.decide(1, 2).kind == "ok"  # same side of the cut
        clock["now"] = 6.0
        assert plan.decide(1, 5).kind == "ok"  # healed

    def test_due_crashes_and_restarts_fire_once(self):
        plan = WireFaultPlan(ADVERSE)
        assert plan.due_crashes(0.5) == []
        first = plan.due_crashes(1.5)
        assert first == [CrashEvent(1.0, 4, 3.0, False)]
        assert plan.due_crashes(1.5) == []  # fire-once
        second = plan.due_crashes(10.0)
        assert second == [CrashEvent(2.0, 5, None, True)]
        assert plan.due_restarts(2.5) == []
        # The infinite horizon sweeps stragglers; no-restart events never fire.
        assert plan.due_restarts(float("inf")) == [CrashEvent(1.0, 4, 3.0, False)]
        assert plan.due_restarts(float("inf")) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            WireFaultPlan(FaultSpec(seed=1), reset=1.5)

    def test_injected_snapshot_shape(self):
        plan = WireFaultPlan(ADVERSE, reset=0.2)
        plan.bind_clock(lambda: 0.0)
        rng = random.Random(1)
        for _ in range(200):
            src, dst = rng.sample(IDS, 2)
            plan.decide(src, dst)
        snap = plan.injected_snapshot()
        assert sorted(snap) == [
            "delays", "drops", "duplicates", "partition_drops", "resets",
        ]
        assert snap["drops"] > 0
        assert snap["delays"] > 0


class TestWireStats:
    def test_snapshot_is_ordered_and_complete(self):
        stats = WireStats()
        stats.timeouts = 2
        stats.resets = 1
        stats.reconnects = 3
        snap = stats.snapshot()
        assert list(snap) == [
            "timeouts", "resets", "refused", "reconnects", "rejected",
        ]
        assert snap == {
            "timeouts": 2, "resets": 1, "refused": 0,
            "reconnects": 3, "rejected": 0,
        }
