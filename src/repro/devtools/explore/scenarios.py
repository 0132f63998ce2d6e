"""Deterministic deployments the schedule explorer searches over.

Each scenario builds a small PAST deployment, drives it through an
event-simulated protocol episode (churn, concurrent joins, storage
diversion under load), runs to quiescence, and then issues a fixed batch
of verification routes with the delivery log enabled.  All randomness
comes from the scenario seed; the *only* free variable is the schedule
policy, so two runs with the same ``(seed, plan)`` are identical and two
runs with different plans differ only by event ordering.

Scenario timing is deliberately tick-aligned: crashes, recoveries and
joins land on the keep-alive probe ticks, so the interesting protocol
races (detection vs. recovery, join vs. probe) show up as schedule
frontiers the explorer can reorder even with a zero commutation window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ...core import AntiEntropyScrubber, PastConfig, PastNetwork, RetryPolicy
from ...core.episode import Episode, build_deployment, lognormal_size
from ...core.seeding import derive_seed
from ...netsim.eventsim import EventSimulator, SchedulePolicy
from ...netsim.faults import FaultPlan, StorageFaultPlan
from ...netsim.trace import ScheduleTrace
from ...pastry import idspace
from ...pastry.network import DeliveryRecord, RoutingError


@dataclass
class ScenarioRun:
    """Everything the quiescence oracles need from one executed schedule."""

    trace: ScheduleTrace
    net: PastNetwork
    sim: EventSimulator
    deliveries: List[DeliveryRecord] = field(default_factory=list)
    routing_errors: List[str] = field(default_factory=list)


ScenarioFn = Callable[..., ScenarioRun]


def _verify_routes(net: PastNetwork, seed: int, run: ScenarioRun) -> None:
    """Route a fixed key batch at quiescence, recording delivery points.

    Uses a fresh RNG derived from the seed (not the scenario's own, whose
    stream position is schedule-dependent) so every plan verifies the
    same keys from the same origins.
    """
    vrng = random.Random(seed ^ 0x5EED)
    node_ids = sorted(net.pastry.node_ids)
    keys = [idspace.routing_key(fid) for fid in sorted(net.live_file_ids())[:6]]
    keys += [vrng.getrandbits(idspace.ID_BITS) for _ in range(4)]
    run.deliveries = net.pastry.start_delivery_log()
    try:
        for key in keys:
            origin = node_ids[vrng.randrange(len(node_ids))]
            try:
                net.pastry.route(origin, key)
            except RoutingError as exc:
                run.routing_errors.append(
                    f"route {origin:#x} -> {key:#x}: {exc}"
                )
    finally:
        net.pastry.delivery_log = None


def _deploy(seed: int, prefix: str, draw_size, capacities=(500_000, 1_000_000),
            n_nodes: int = 10, n_files: int = 10, **thresholds) -> tuple:
    """``(rng, net)``: the seeded RNG and its small l=8, k=3 deployment."""
    rng = random.Random(seed)
    net = build_deployment(
        PastConfig(l=8, k=3, seed=seed, cache_policy="none", **thresholds),
        [rng.randrange(*capacities) for _ in range(n_nodes)],
        n_files, draw_size, rng, owner="explore", prefix=prefix,
    )
    return rng, net


_LOGNORMAL = lognormal_size(2.0, 100_000)


def _small_files(rng: random.Random) -> int:
    return rng.randrange(1_500, 3_500)


def _verified(episode: Episode, seed: int) -> ScenarioRun:
    """Stop probing, then route the verification batch."""
    episode.monitor.stop()
    run = ScenarioRun(trace=episode.trace, net=episode.net, sim=episode.sim)
    _verify_routes(episode.net, seed, run)
    return run


# Event labels below are the closures' historical qualnames: schedule
# digests cover them, and the committed pins were recorded with these
# (which is also why ``heal`` stays a local wrapper of ``episode.heal``).


def scenario_churn(
    seed: int,
    policy: Optional[SchedulePolicy] = None,
    trace: Optional[ScheduleTrace] = None,
) -> ScenarioRun:
    """Crash/detect/recover churn with disk loss on the crashed nodes.

    Recoveries are placed a full detection period after each crash, so
    under *every* legal schedule the keep-alive expiry fires first and
    replica maintenance runs; the explorer perturbs the order of probe
    rounds, detections and recoveries within each tick.
    """
    rng, net = _deploy(seed, "c", _LOGNORMAL)
    episode = Episode(net, trace=trace, policy=policy)
    episode.monitor.start()

    victims = list(net.pastry.node_ids)
    rng.shuffle(victims)
    when = 0.0
    for victim in victims[:3]:
        when += rng.expovariate(0.5)
        episode.crash_at(
            when, victim, wipe_disk=True,
            label="scenario_churn.<locals>.make_crash.<locals>.crash",
        )
        episode.recover_at(
            when + 8.0, victim,
            label="scenario_churn.<locals>.make_recover.<locals>.recover",
        )
    episode.sim.run_until(when + 12.0)
    return _verified(episode, seed)


def scenario_join(
    seed: int,
    policy: Optional[SchedulePolicy] = None,
    trace: Optional[ScheduleTrace] = None,
) -> ScenarioRun:
    """Nodes joining a live deployment while keep-alives run.

    Joins are scheduled exactly on probe ticks, so each join is
    co-enabled with the whole probe round and the explorer can run it
    before, between, or after any of the probes.
    """
    rng, net = _deploy(seed, "j", _LOGNORMAL, n_nodes=8, n_files=8)
    episode = Episode(net, trace=trace, policy=policy)
    episode.monitor.start()

    def make_join(capacity: int) -> Callable[[], None]:
        def join() -> None:
            for node in net.add_node(capacity):
                episode.monitor.watch(node.node_id)
        return join

    for tick in (2.0, 3.0, 4.0):
        episode.sim.schedule_at(
            tick, make_join(rng.randrange(500_000, 1_000_000))
        )
    episode.sim.run_until(8.0)
    return _verified(episode, seed)


def scenario_divert(
    seed: int,
    policy: Optional[SchedulePolicy] = None,
    trace: Optional[ScheduleTrace] = None,
) -> ScenarioRun:
    """Replica diversion under load, then a crash racing its recovery.

    Small node capacities push utilization high enough that some
    replicas are diverted (§3.3); a node holding diverted state then
    crashes with its disk intact, and its recovery is placed *on* the
    tick where detection may expire — whether the keep-alive expiry or
    the recovery runs first is the explorer's choice, and both orders
    must leave the invariants intact.
    """
    # Loose acceptance thresholds (the defaults reject any file larger
    # than a tenth of a node's free space) so a dozen inserts are enough
    # to drive individual nodes into diverting replicas to leaf-set
    # members.
    _, net = _deploy(
        seed, "d", _small_files, capacities=(10_000, 16_000), n_files=12,
        t_pri=0.5, t_div=0.25,
    )
    episode = Episode(net, trace=trace, policy=policy)
    episode.monitor.start()

    holders = sorted(
        n.node_id for n in net.nodes() if n.store.diverted_in
    )
    victim = holders[0] if holders else sorted(net.pastry.node_ids)[0]
    episode.crash_at(3.0, victim, label="scenario_divert.<locals>.crash")
    episode.recover_at(6.0, victim, label="scenario_divert.<locals>.recover")
    episode.sim.run_until(10.0)
    return _verified(episode, seed)


def scenario_chaos(
    seed: int,
    policy: Optional[SchedulePolicy] = None,
    trace: Optional[ScheduleTrace] = None,
) -> ScenarioRun:
    """Message loss plus a crash/restart, healed before quiescence.

    A seeded fault plane drops ~15% of hops (and keep-alive probes)
    while resilient clients look files up and one node crashes, loses
    its disk, and restarts.  The plane is removed at the heal tick and
    the run continues fault-free through a detection fixpoint plus a
    repair pass, so the quiescence oracles (overlay audit, no lost or
    misdelivered verification routes) must hold under every schedule:
    the explorer searches interleavings of probes, fault decisions,
    crash, restart and client retries.
    """
    _, net = _deploy(seed, "h", _LOGNORMAL)
    episode = Episode(net, trace=trace, policy=policy)
    sim = episode.sim
    plan = FaultPlan(
        seed=derive_seed(seed, "explore-chaos"), loss=0.15
    ).bind_clock(lambda: sim.now)
    retry = RetryPolicy(max_attempts=4)
    lookup_rng = random.Random(derive_seed(seed, "explore-chaos-clients"))
    fids = sorted(net.live_file_ids())

    def lookups() -> None:
        live = net.pastry.node_ids
        for _ in range(3):
            fid = fids[lookup_rng.randrange(len(fids))]
            origin = live[lookup_rng.randrange(len(live))]
            net.lookup(fid, origin, policy=retry)

    def heal() -> None:
        episode.heal()

    net.pastry.fault_plan = plan
    episode.monitor.start()
    for tick in (1.0, 2.0, 3.0, 5.0, 6.0):
        sim.schedule_at(tick + 0.5, lookups)
    victim = sorted(net.pastry.node_ids)[0]
    episode.crash_at(
        2.0, victim, wipe_disk=True, label="scenario_chaos.<locals>.crash"
    )
    episode.recover_at(7.0, victim, label="scenario_chaos.<locals>.recover")
    sim.schedule_at(8.0, heal)
    # Fault-free tail: a detection timeout plus two probe rounds.
    sim.run_until(13.0)
    episode.quiesce()  # heals too, in case a schedule never ran heal()
    return _verified(episode, seed)


def scenario_scrub(
    seed: int,
    policy: Optional[SchedulePolicy] = None,
    trace: Optional[ScheduleTrace] = None,
) -> ScenarioRun:
    """Anti-entropy scrubbing racing bit rot, a crash and its recovery.

    Disks rot silently under a seeded :class:`StorageFaultPlan` while
    per-node scrub timers verify and read-repair replicas; one node
    crashes with its (rotting) disk intact and recovers mid-run, so the
    explorer interleaves scrub rounds, probe rounds, detection, the
    recovery and the disk heal.  At the heal tick all latent rot is
    materialized and the plane removed; the fault-free tail plus a
    synchronous scrub fixpoint must then leave no corrupt copy that
    still has a verified donor — under *every* schedule — or the
    audit's integrity oracle trips.
    """
    _, net = _deploy(seed, "s", _small_files)
    episode = Episode(net, trace=trace, policy=policy)
    sim = episode.sim
    splan = StorageFaultPlan(
        seed=derive_seed(seed, "explore-scrub"), bitrot_rate=2e-5
    )
    net.install_storage_faults(splan, clock=lambda: sim.now)
    episode.scrubber = AntiEntropyScrubber(sim, net, interval=1.0, seed=seed)

    def heal() -> None:
        episode.heal()

    episode.monitor.start()
    episode.scrubber.start()
    victim = sorted(net.pastry.node_ids)[0]
    # Disk stays intact: its replicas keep rotting, unverified, until
    # the node returns and the scrubber reaches them again.
    episode.crash_at(2.0, victim, label="scenario_scrub.<locals>.crash")
    episode.recover_at(6.0, victim, label="scenario_scrub.<locals>.recover")
    sim.schedule_at(8.0, heal)
    # Fault-free tail: a detection timeout plus two probe rounds.
    sim.run_until(13.0)
    episode.quiesce()  # heals too, in case a truncated schedule never did
    return _verified(episode, seed)


SCENARIOS: Dict[str, ScenarioFn] = {
    "churn": scenario_churn,
    "join": scenario_join,
    "divert": scenario_divert,
    "chaos": scenario_chaos,
    "scrub": scenario_scrub,
}
