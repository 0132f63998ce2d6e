"""Unit tests for fault injection on the real-TCP transport.

The contract under test: :class:`AsyncioTransport` consults the
simulator's own :class:`FaultPlan` for every fault-scoped leg, and the
one wire-only fault (a mid-frame reset) draws from the transport's own
RNG, so enabling resets cannot shift the plan's verdict stream.
"""

import pytest

from repro.net import WireStats
from repro.net.differential import build_cluster
from repro.netsim.faults import NEVER, FaultPlan, FaultStats


@pytest.fixture(scope="module")
def cluster():
    net, transport = build_cluster(4, seed=3, engine="asyncio")
    try:
        yield sorted(net.pastry.node_ids), transport
    finally:
        transport.close()


def _adverse_plan(ids):
    plan = FaultPlan(seed=42, loss=0.3, delay_mean=0.0005, duplicate=0.1)
    plan.add_partition(at=0.0, heal_at=NEVER, group=ids[:1])
    return plan.bind_clock(lambda: 0.0)


def _drive(transport, plan, reset, ids):
    """Probe every ordered pair of distinct nodes, three times over."""
    transport.install_faults(plan, reset=reset)
    try:
        for _ in range(3):
            for src in ids:
                for dst in ids:
                    if src != dst:
                        transport.probe(src, dst)
    finally:
        transport.install_faults(None)


class TestInstallFaults:
    def test_reset_must_be_a_probability(self, cluster):
        _, transport = cluster
        with pytest.raises(ValueError):
            transport.install_faults(FaultPlan(seed=1), reset=1.5)
        assert transport.faults is None


class TestDecisionParity:
    """The plan's verdicts are the same whether or not the wire tears legs."""

    def test_resets_do_not_perturb_the_shared_stream(self, cluster):
        """Reset draws come from the transport's RNG: the same legs with
        resets off and cranked to 1.0 leave the plan in the same state."""
        ids, transport = cluster
        quiet, noisy = _adverse_plan(ids), _adverse_plan(ids)
        _drive(transport, quiet, 0.0, ids)
        _drive(transport, noisy, 1.0, ids)
        assert quiet.rng.getstate() == noisy.rng.getstate()
        assert quiet.stats.messages_lost == noisy.stats.messages_lost > 0
        assert quiet.stats.partition_drops == noisy.stats.partition_drops > 0
        assert quiet.stats.resets == 0
        assert noisy.stats.resets > 0

    def test_quiet_plan_draws_nothing(self, cluster):
        """A plan injecting nothing consumes no randomness per leg, from
        either the plan's RNG or the transport's reset RNG (the zero-cost
        invariant the sim plane already pins)."""
        ids, transport = cluster
        clean = FaultPlan(seed=9)
        plan_state = clean.rng.getstate()
        transport.install_faults(clean)
        wire_state = transport._reset_rng.getstate()
        try:
            for src in ids[1:]:
                assert transport.probe(ids[0], src) is True
            assert transport._reset_rng.getstate() == wire_state
        finally:
            transport.install_faults(None)
        assert clean.rng.getstate() == plan_state
        assert clean.stats == FaultStats()


class TestWireFaultPlan:
    def test_reset_counter_and_kind(self, cluster):
        """A torn leg counts once in ``plan.stats.resets``; resets are
        wire-only, so the plan records it as neither a loss nor a cut."""
        ids, transport = cluster
        plan = FaultPlan(seed=9).bind_clock(lambda: 0.0)
        wire_resets = transport.wire.resets
        transport.install_faults(plan, reset=1.0)
        try:
            assert transport.probe(ids[0], ids[1]) is False
        finally:
            transport.install_faults(None)
        assert plan.stats.resets == 1
        assert plan.stats.messages_lost == 0
        assert plan.stats.partition_drops == 0
        assert transport.wire.resets > wire_resets
        # The torn link recovers once the plan is removed.
        assert transport.probe(ids[0], ids[1]) is True


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
