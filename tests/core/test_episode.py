"""The shared fault-episode protocol: quiescence, then the verdict."""

import random

from repro.core import AntiEntropyScrubber, PastConfig
from repro.core.episode import Episode, build_deployment, verdict
from repro.netsim.faults import FaultPlan, StorageFaultPlan


def deployment(seed=11):
    rng = random.Random(seed)
    return build_deployment(
        PastConfig(l=8, k=3, seed=seed, cache_policy="none"),
        [rng.randrange(500_000, 1_000_000) for _ in range(12)],
        10, lambda _rng: 2_000, rng, owner="episode", prefix="e",
    )


class TestQuiesce:
    def test_every_plane_at_once_then_an_already_quiet_deployment(self):
        net = deployment()
        episode = Episode(net)
        sim = episode.sim
        node_ids = sorted(net.pastry.node_ids)
        plan = FaultPlan(seed=1, loss=0.05).bind_clock(lambda: sim.now)
        plan.add_partition(at=0.0, heal_at=1e9, group=node_ids[:6])
        net.pastry.fault_plan = plan
        splan = StorageFaultPlan(seed=2, bitrot_rate=4e-5)
        net.install_storage_faults(splan, clock=lambda: sim.now)
        episode.scrubber = AntiEntropyScrubber(sim, net, interval=50.0, seed=3)
        episode.monitor.start()
        # Crashed at 1.0, keep-alive timeout 3.0: still undetected at 2.5,
        # the partition is active, and no replica has been read since
        # the rot clock started.
        episode.crash_at(1.0, node_ids[0], wipe_disk=True)
        sim.run_until(2.5)
        assert node_ids[0] in net._failed_past and episode.crashes_applied == 1
        assert splan.stats.bitrot_corruptions == 0

        episode.quiesce(
            settle=episode.monitor.timeout + 2 * episode.monitor.interval
        )
        assert splan.stats.bitrot_corruptions > 0  # latent rot materialised
        assert net.pastry.fault_plan is None and net.storage_faults is None
        assert not net._failed_past and episode.restarts_applied == 1
        outcome = verdict(net)
        assert outcome.audit_ok, outcome.violations
        assert (outcome.lost_files, outcome.corrupt_files) == (0, 0)

        # Quiet already: the same call runs no event, leaves none
        # pending and draws from no RNG.
        def state():
            return (
                len(episode.trace.events), sim.pending(), sim.now,
                net.rng.getstate(), net.retry_rng.getstate(),
                net.pastry.rng.getstate(), episode.scrubber.rng.getstate(),
                random.getstate(),
            )

        before = state()
        episode.quiesce()
        assert state() == before
        assert verdict(net) == outcome
