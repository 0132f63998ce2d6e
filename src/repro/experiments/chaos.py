"""Chaos harness: PAST under injected loss, partitions and crash storms.

The paper's robustness story has two empirical claims this harness
checks end-to-end against a :class:`~repro.netsim.faults.FaultPlan`:

* **Availability (§2.3)** — a request lost in transit is recovered by
  the *client*: retry with randomized routing, and fall back across the
  k replica holders.  :func:`run_loss_sweep` measures lookup success
  under uniform message loss with and without a
  :class:`~repro.core.resilience.RetryPolicy`.
* **Durability (§3.5)** — "the probability of losing a file is very
  small: it requires the simultaneous failure of a file's k replica
  holders within a recovery period".  :func:`run_durability_demo` runs
  a crash storm whose interarrival dwarfs the recovery period (no file
  may be lost) and an overlapping storm that crashes one file's entire
  replica set inside a single detection window (that file — and only
  files hit like that — must be reported lost, by id, by the oracle).
* **Integrity** — disks fail without nodes dying: a
  :class:`~repro.netsim.faults.StorageFaultPlan` injects silent bit
  rot.  :func:`run_bitrot_sweep` shows the anti-entropy scrubber plus
  read-repair recovering 100% of the corruption that the no-scrub
  baseline turns into unrecoverable files.

Every run is driven by one seeded :class:`EventSimulator` with a
:class:`ScheduleTrace`, so a report includes the trace digest: two runs
with the same config are byte-identical, which CI checks across
different ``PYTHONHASHSEED`` values.

Oracle soundness: every oracle audits the network *after* the
quiescence protocol in :mod:`repro.core.episode`, never mid-chaos.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..core import (
    AntiEntropyScrubber,
    PastConfig,
    PastNetwork,
    RetryPolicy,
    derive_seed,
)
from ..core.episode import Episode, build_deployment, lognormal_size, verdict
from ..netsim import CRASH_PHASES, FaultPlan, StorageFaultPlan
from ..pastry import idspace
from ..store import Vfs, WalBackend, recover_state

import random


@dataclass
class ChaosConfig:
    """One chaos scenario: a deployment, a workload, and a fault plan."""

    seed: int = 0
    n_nodes: int = 20
    n_files: int = 24
    k: int = 5
    #: Uniform per-hop message-loss probability while faults are active.
    loss: float = 0.0
    #: Cut half the ring off in [partition_at, partition_heal_at).
    partition: bool = False
    partition_at: float = 4.0
    partition_heal_at: float = 9.0
    #: Independent crash storm from ``CRASH_START``: this many victims,
    #: exponential interarrival, each restarting ``restart_after`` later.
    crash_count: int = 0
    crash_interarrival: float = 10.0
    restart_after: float = 5.0
    wipe_disks: bool = True
    #: Overlapping-failure mode: crash the entire replica set of the
    #: first inserted file within one detection window (§3.5's loss
    #: condition), ``overlap_spacing`` apart.
    crash_target_replica_set: bool = False
    overlap_spacing: float = 0.1
    #: Client workload: ``lookups_per_tick`` lookups per virtual second.
    lookups_per_tick: int = 8
    duration: float = 25.0
    #: Client resilience (None = the no-retry baseline client).
    policy: Optional[RetryPolicy] = None
    #: Storage-fault plane: a StorageFaultPlan is installed iff this is
    #: non-zero (per replica-byte per virtual second; see netsim.faults).
    bitrot_rate: float = 0.0
    #: Anti-entropy scrubbing: per-node scrub period (0 = scrubber off).
    scrub_interval: float = 0.0
    scrub_jitter: float = 0.0
    #: Fixed file size for the workload (None = lognormal paper sizes);
    #: bitrot sweeps pin it so corruption odds are uniform across files.
    file_size: Optional[int] = None


@dataclass
class ChaosReport:
    """Everything one chaos run measured, JSON-serializable."""

    scenario: str
    seed: int
    digest: str
    lookups_attempted: int = 0
    lookups_succeeded: int = 0
    hedged_successes: int = 0
    total_attempts: int = 0
    crashes_applied: int = 0
    restarts_applied: int = 0
    #: FaultPlan counters at heal time.
    messages_lost: int = 0
    partition_drops: int = 0
    probes_lost: int = 0
    rpcs_lost: int = 0
    #: Durability oracle (post-quiescence).
    lost_files: int = 0
    lost_file_ids: List[str] = field(default_factory=list)
    target_file_id: Optional[str] = None
    degraded_files: int = 0
    audit_ok: bool = True
    violations: List[str] = field(default_factory=list)
    false_detections: int = 0
    #: StorageFaultPlan's rot counter at heal time.
    bitrot_corruptions: int = 0
    #: Integrity-plane reactions (IntegrityStats) + post-heal audit.
    integrity_failovers: int = 0
    read_repairs: int = 0
    re_replications: int = 0
    scrub_rounds: int = 0
    scrub_corrupt_found: int = 0
    corrupt_files: int = 0
    unrecoverable_files: int = 0
    unrecoverable_file_ids: List[str] = field(default_factory=list)
    healed_file_ids: List[str] = field(default_factory=list)

    @property
    def lookup_success(self) -> float:
        if not self.lookups_attempted:
            return 1.0
        return self.lookups_succeeded / self.lookups_attempted

    @property
    def mean_attempts(self) -> float:
        if not self.lookups_attempted:
            return 0.0
        return self.total_attempts / self.lookups_attempted

    def to_json(self) -> str:
        payload = asdict(self)
        payload["lookup_success"] = round(self.lookup_success, 6)
        payload["mean_attempts"] = round(self.mean_attempts, 4)
        return json.dumps(payload, sort_keys=True, indent=2)


#: When a crash storm (or the targeted replica-set kill) begins.
CRASH_START = 2.0
_PAPER_SIZES = lognormal_size(1.5, 50_000)


def _build_deployment(
    cfg: ChaosConfig, rng: random.Random, backend_factory=None
) -> PastNetwork:
    """A clean, fault-free deployment with n_files fully replicated."""
    net = build_deployment(
        PastConfig(l=8, k=cfg.k, seed=cfg.seed, cache_policy="none"),
        [rng.randrange(500_000, 1_000_000) for _ in range(cfg.n_nodes)],
        cfg.n_files,
        _PAPER_SIZES if cfg.file_size is None else (lambda _rng: cfg.file_size),
        rng, owner="chaos", prefix="x",
        store_backend_factory=backend_factory,
    )
    if len(net.live_file_ids()) != cfg.n_files:
        raise RuntimeError("chaos setup could not place its files")
    return net


def run_chaos(cfg: ChaosConfig, scenario: str = "custom") -> ChaosReport:
    """Execute one chaos scenario end to end and audit the aftermath."""
    rng = random.Random(derive_seed(cfg.seed, "chaos-harness"))
    net = _build_deployment(cfg, rng)
    fids = sorted(net.live_file_ids())
    report = ChaosReport(scenario=scenario, seed=cfg.seed, digest="")

    def on_detect(node_id: int) -> None:
        # Sustained probe loss can make a *live* peer look dead; PAST's
        # detection handler ignores those, but count them — they are the
        # price of a loss-tolerant detector.
        if net.pastry.is_live(node_id):
            report.false_detections += 1
        net.process_failure_detection(node_id)

    episode = Episode(net, on_detect=on_detect)
    sim = episode.sim
    plan = FaultPlan(
        seed=derive_seed(cfg.seed, "chaos-faults"), loss=cfg.loss
    ).bind_clock(lambda: sim.now)
    node_ids = sorted(net.pastry.node_ids)
    if cfg.partition:
        plan.add_partition(
            at=cfg.partition_at,
            heal_at=cfg.partition_heal_at,
            group=node_ids[: len(node_ids) // 2],
        )
    if cfg.crash_count > 0:
        rng.shuffle(node_ids)
        plan.schedule_crash_storm(
            node_ids[: cfg.crash_count],
            start=CRASH_START,
            interarrival=cfg.crash_interarrival,
            restart_after=cfg.restart_after,
            wipe_disk=cfg.wipe_disks,
        )

    splan: Optional[StorageFaultPlan] = None
    if cfg.bitrot_rate > 0.0:
        splan = StorageFaultPlan(
            seed=derive_seed(cfg.seed, "chaos-disk"),
            bitrot_rate=cfg.bitrot_rate,
        )
        net.install_storage_faults(splan, clock=lambda: sim.now)
    if cfg.scrub_interval > 0.0:
        episode.scrubber = AntiEntropyScrubber(
            sim, net,
            interval=cfg.scrub_interval,
            jitter=cfg.scrub_jitter,
            seed=cfg.seed,
        )
        episode.scrubber.start()

    if cfg.crash_target_replica_set:
        # §3.5's loss condition, made flesh: every replica holder of one
        # file dies inside a single detection window, disks wiped.
        report.target_file_id = hex(fids[0])
        holders = net.pastry.k_closest_live(
            idspace.routing_key(fids[0]), cfg.k
        )
        when = CRASH_START
        for holder in holders:
            plan.schedule_crash(
                when, holder,
                restart_at=when + cfg.restart_after,
                wipe_disk=True,
            )
            when += cfg.overlap_spacing

    # The labels are the closures' historical qualnames: schedule-trace
    # digests cover them, and the committed pins were recorded with these.
    for event in plan.crashes:
        episode.crash_at(
            event.time, event.node_id, wipe_disk=event.wipe_disk,
            label="run_chaos.<locals>.make_crash.<locals>.crash",
        )
        if event.restart_at is not None:
            episode.recover_at(
                event.restart_at, event.node_id,
                label="run_chaos.<locals>.make_restart.<locals>.restart",
            )

    # -- client workload -------------------------------------------------
    lookup_rng = random.Random(derive_seed(cfg.seed, "chaos-clients"))

    def lookup_tick() -> None:
        live = net.pastry.node_ids
        if not live:
            return
        for _ in range(cfg.lookups_per_tick):
            fid = fids[lookup_rng.randrange(len(fids))]
            origin = live[lookup_rng.randrange(len(live))]
            result = net.lookup(fid, origin, policy=cfg.policy)
            report.lookups_attempted += 1
            report.total_attempts += result.attempts
            report.integrity_failovers += result.integrity_failovers
            if result.success:
                report.lookups_succeeded += 1
                if result.hedged:
                    report.hedged_successes += 1

    tick = 0.5
    while tick < cfg.duration:
        sim.schedule_at(tick, lookup_tick)
        tick += 1.0

    # -- run under faults, then heal and quiesce (core.episode) ----------
    net.pastry.fault_plan = plan
    episode.monitor.start()
    sim.run_until(cfg.duration)
    # Detection fixpoint: one full timeout plus two probe intervals of
    # fault-free probing flushes every pending detection.
    episode.quiesce(
        settle=episode.monitor.timeout + 2 * episode.monitor.interval
    )

    # Fault-plane counters: frozen since quiesce() detached both plans.
    report.crashes_applied = episode.crashes_applied
    report.restarts_applied = episode.restarts_applied
    report.messages_lost = plan.stats.messages_lost
    report.partition_drops = plan.stats.partition_drops
    report.probes_lost = plan.stats.probes_lost
    report.rpcs_lost = plan.stats.rpcs_lost
    if splan is not None:
        report.bitrot_corruptions = splan.stats.bitrot_corruptions
    report.read_repairs = net.integrity.read_repairs
    report.re_replications = net.integrity.re_replications
    report.scrub_rounds = net.integrity.scrub_rounds
    report.scrub_corrupt_found = net.integrity.scrub_corrupt_found
    report.healed_file_ids = [
        hex(fid) for fid in sorted(net.integrity.healed_file_ids)
    ]

    verdict(net).fill(report)
    report.degraded_files = len(net.degraded_files)
    report.digest = episode.trace.digest()
    return report


# --------------------------------------------------------------- sweeps


def run_loss_sweep(seed: int = 0) -> List[ChaosReport]:
    """Baseline vs. resilient lookups at 0%, 5% and 10% uniform loss.

    For each rate, runs the identical workload twice: once with the
    bare no-retry client and once under a six-attempt retry policy.  The
    acceptance target is ≥99% lookup success at 10% loss with it on.
    """
    policy = RetryPolicy(max_attempts=6)
    out: List[ChaosReport] = []
    for rate in (0.0, 0.05, 0.10):
        for pol, tag in ((None, "baseline"), (policy, "retry+hedge")):
            cfg = ChaosConfig(seed=seed, loss=rate, policy=pol)
            out.append(run_chaos(cfg, scenario=f"loss={rate:g}/{tag}"))
    return out


def loss_sweep_failures(sweep: List[ChaosReport]) -> List[str]:
    return [
        "resilient lookup success under 10% loss fell below 99%: "
        f"{r.lookup_success:.4f}"
        for r in sweep
        if r.scenario == "loss=0.1/retry+hedge" and r.lookup_success < 0.99
    ]


def run_partition_heal(seed: int = 0) -> ChaosReport:
    """Partition half the ring, lose a little background traffic, heal.

    Partitions degrade availability while active but never durability:
    the oracle must report zero lost files and a clean audit after heal.
    """
    cfg = ChaosConfig(
        seed=seed,
        loss=0.02,
        partition=True,
        partition_at=4.0,
        partition_heal_at=12.0,
        policy=RetryPolicy(max_attempts=4),
    )
    return run_chaos(cfg, scenario="partition-heal")


def partition_failures(sweep: List[ChaosReport]) -> List[str]:
    return [
        "partition/heal lost files or left a dirty audit"
        for r in sweep if r.lost_files or not r.audit_ok
    ]


def run_durability_demo(seed: int = 0) -> List[ChaosReport]:
    """The §3.5 durability claim, both directions: [spaced, overlapping].

    ``spaced``: loss ≤5%, crash interarrival (10s) ≫ recovery period
    (probe timeout 3s + interval 1s), k=5, wiped disks → re-replication
    outruns the storm and **zero** files may be lost.

    ``overlapping``: the entire replica set of one file dies within half
    a second — inside one detection window — with wiped disks.  That
    file is unrecoverable, and the durability oracle must name it.
    """
    spaced = run_chaos(
        ChaosConfig(
            seed=seed,
            loss=0.05,
            crash_count=4,
            crash_interarrival=10.0,
            restart_after=5.0,
            wipe_disks=True,
            duration=50.0,
            policy=RetryPolicy(max_attempts=6),
        ),
        scenario="durability/spaced",
    )
    overlapping = run_chaos(
        ChaosConfig(
            seed=seed,
            loss=0.05,
            crash_target_replica_set=True,
            overlap_spacing=0.1,
            restart_after=6.0,
            wipe_disks=True,
            policy=RetryPolicy(max_attempts=6),
        ),
        scenario="durability/overlapping",
    )
    return [spaced, overlapping]


def durability_failures(demo: List[ChaosReport]) -> List[str]:
    spaced, doomed = demo
    failures = []
    if spaced.lost_files != 0:
        failures.append("spaced crash storm lost files (should be zero)")
    if doomed.target_file_id not in doomed.lost_file_ids:
        failures.append(
            "overlapping storm did not report the doomed file as lost"
        )
    return failures


def run_bitrot_sweep(seed: int = 0) -> List[ChaosReport]:
    """Silent bit rot with and without the anti-entropy scrubber.

    Each rate runs the identical deployment twice: scrubbing off (the
    baseline — latent rot accumulates unnoticed until every copy of
    some file is damaged) and scrubbing on (detection plus read-repair
    and re-replication must win the race).  No client lookups run, so
    nothing *but* the scrubber can trip over the damage — the baseline
    genuinely loses file contents.  At the top rate the off leg must
    report unrecoverable files; the on leg must end with a clean audit,
    zero unrecovered corruption, and the healed fileIds named.
    """
    out: List[ChaosReport] = []
    for rate in (2e-5, 6e-5):
        for scrub, tag in ((0.0, "scrub-off"), (0.5, "scrub-on")):
            cfg = ChaosConfig(
                seed=seed,
                n_nodes=16,
                n_files=12,
                # k=4: the scrubber's failure mode is all copies rotting
                # inside one scrub window, which scales as p_window^k —
                # one extra replica turns a seed-lucky oracle into a
                # robust one without slowing the sweep.
                k=4,
                file_size=2000,
                bitrot_rate=rate,
                lookups_per_tick=0,
                duration=20.0,
                scrub_interval=scrub,
                scrub_jitter=scrub / 6 if scrub else 0.0,
            )
            out.append(run_chaos(cfg, scenario=f"bitrot={rate:g}/{tag}"))
    return out


def bitrot_failures(sweep: List[ChaosReport]) -> List[str]:
    failures = []
    off_legs = [r for r in sweep if r.scenario.endswith("/scrub-off")]
    if not any(r.unrecoverable_files for r in off_legs):
        failures.append(
            "bitrot baseline (scrub off) lost no file contents — the "
            "sweep proves nothing about the scrubber"
        )
    for r in sweep:
        if not r.scenario.endswith("/scrub-on"):
            continue
        if r.unrecoverable_files or r.corrupt_files or not r.audit_ok:
            failures.append(
                f"{r.scenario}: unrecovered corruption survived the scrubber"
            )
        elif not r.healed_file_ids:
            failures.append(
                f"{r.scenario}: scrubber healed nothing — bitrot never bit"
            )
    return failures


# ------------------------------------------------- crash/restart sweep


@dataclass
class CrashRestartCell:
    """One kill/restart: a victim, a kill phase, and what replay found."""

    phase: str
    victim: str
    #: Seq of the last applied record and the last fsync barrier at the
    #: moment of the kill — recovery must land in [synced_seq, last_seq].
    last_seq: int
    synced_seq: int
    recovered_seq: int
    records_replayed: int
    records_skipped: int
    truncated_bytes: int
    snapshot_seq: int
    restored_entries: int
    #: The recovered state digest matched some committed prefix of the
    #: pre-crash append history (the core crash-consistency oracle).
    in_committed_window: bool
    #: Two read-only replays of the same files produced identical state.
    replay_idempotent: bool


@dataclass
class CrashRestartReport:
    """One kill phase's sweep: every cell plus the post-recovery audit."""

    seed: int
    phase: str
    cells: List[CrashRestartCell] = field(default_factory=list)
    lost_files: int = 0
    lost_file_ids: List[str] = field(default_factory=list)
    audit_ok: bool = True
    violations: List[str] = field(default_factory=list)
    scrub_rounds: int = 0

    def oracle_failures(self) -> List[str]:
        """The sweep's three oracles (see :func:`run_crash_restart_sweep`)."""
        failures = []
        if self.lost_files:
            failures.append(
                f"{self.phase}: lost files with surviving replicas: "
                + ", ".join(self.lost_file_ids)
            )
        if not self.audit_ok:
            failures.append(f"{self.phase}: post-recovery audit dirty")
        for c in self.cells:
            if not c.in_committed_window:
                failures.append(
                    f"{self.phase}/{c.victim}: recovered a state outside the "
                    "committed prefix window"
                )
            if not c.replay_idempotent:
                failures.append(f"{self.phase}/{c.victim}: replay not idempotent")
        return failures


def _kill_and_restart(
    net: PastNetwork, victim: int, phase: str, open_wal
) -> CrashRestartCell:
    """kill -9 one node at ``phase``, restart it from its WAL alone."""
    node = net._past[victim]
    backend = node.store.backend
    history = dict(backend.digest_history)
    last_seq = backend.state.seq
    synced = backend.synced_seq
    backend.crash(phase)

    net.fail_node(victim)
    # Confirm-reread: failure detection suspends at its rebind RPCs; the
    # victim must still be down before the survivors repair around it.
    if victim in net._past:
        raise RuntimeError("victim resurrected mid-kill")
    # The survivors restore the k-invariant around the corpse — exactly
    # what runs during a real recovery period (§3.5).
    net.repair_all()

    # Restart: a fresh process sees only the disk.  Opening the backend
    # is recovery (snapshot + replay, torn tail truncated).
    reborn = open_wal(victim, None)
    recovered = reborn.state.state_digest(reborn.codec)
    window = {history[s] for s in range(synced, last_seq + 1) if s in history}
    # Replay idempotence, checked on the real post-crash files: two
    # read-only recoveries must agree byte-for-byte.
    s1, _ = recover_state(Vfs(), reborn.directory, reborn.codec, truncate=False)
    s2, _ = recover_state(Vfs(), reborn.directory, reborn.codec, truncate=False)
    idempotent = (
        s1.seq == s2.seq
        and s1.state_digest(reborn.codec) == s2.state_digest(reborn.codec)
        and s1.state_digest(reborn.codec) == recovered
    )

    # The kill lost RAM: rebuild the in-memory tables from durable state
    # only, then rejoin.  reopen() bypasses the journal hooks (the
    # records are already in the WAL), and _reconcile_recovered repairs
    # whatever the lost unsynced tail made stale.
    # Confirm-reread: repair_all() suspends at its repair RPCs; the
    # victim must still be in the failed set before its tables go.
    if victim not in net._failed_past:
        raise RuntimeError("victim vanished from the failed set")
    restored = net._failed_past[victim].store.reopen(reborn)
    net.recover_node(victim)

    return CrashRestartCell(
        phase=phase,
        victim=hex(victim),
        last_seq=last_seq,
        synced_seq=synced,
        recovered_seq=reborn.state.seq,
        records_replayed=reborn.recovery.records_replayed,
        records_skipped=reborn.recovery.records_skipped,
        truncated_bytes=reborn.recovery.truncated_bytes,
        snapshot_seq=reborn.recovery.snapshot_seq,
        restored_entries=restored,
        in_committed_window=recovered in window,
        replay_idempotent=idempotent,
    )


def _run_crash_restart_phase(seed: int, phase: str) -> CrashRestartReport:
    rng = random.Random(derive_seed(seed, f"crash-restart-{phase}"))
    base = Path(tempfile.mkdtemp(prefix="past-crash-restart-"))
    splan = StorageFaultPlan(seed=derive_seed(seed, "crash-restart-disk"))

    def open_wal(node_id: int, _installed) -> WalBackend:
        # sync_every > 1 opens a real crash window: the unsynced tail is
        # what before-fsync loses and torn-fsync tears mid-record.
        return WalBackend(
            base / f"{node_id:032x}",
            node_id=node_id,
            fault_plan=splan,
            sync_every=4,
            track_digests=True,
        )

    report = CrashRestartReport(seed=seed, phase=phase)
    try:
        cfg = ChaosConfig(seed=seed, n_nodes=14, n_files=16, k=4)
        net = _build_deployment(cfg, rng, backend_factory=open_wal)
        episode = Episode(net)
        episode.scrubber = AntiEntropyScrubber(
            episode.sim, net, interval=5.0, seed=seed
        )
        owner = net.create_client("crash-restart")

        victims = sorted(net.pastry.node_ids)
        rng.shuffle(victims)
        extra = 0
        for victim in victims[:2]:
            # Churn between kills so every WAL carries fresh records —
            # including an unsynced tail for the kill to bite into.
            for _ in range(3):
                # Confirm-reread: the previous insert (and the previous
                # victim's whole kill/restart) suspend; pick the insert
                # origin from the overlay as it is *now*.
                if not net.pastry.node_ids:
                    break
                live = net.pastry.node_ids
                net.insert(
                    f"churn{extra}", owner, _PAPER_SIZES(rng),
                    live[rng.randrange(len(live))],
                )
                extra += 1
            net.run_migration()
            cell = _kill_and_restart(net, victim, phase, open_wal)
            # Confirm-reread: the kill/restart suspended throughout; one
            # cell per victim, whatever interleaved.
            assert cell not in report.cells
            report.cells.append(cell)

        # Confirm-reread: every victim restart above suspended; make sure
        # the overlay still has live members before the final repair.
        if not net.pastry.node_ids:
            raise RuntimeError("overlay emptied out during the sweep")
        episode.quiesce()
        report.scrub_rounds = net.integrity.scrub_rounds
        verdict(net).fill(report)
        for node in net.nodes():
            if node.store.backend is not None:
                node.store.backend.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return report


def run_crash_restart_sweep(seed: int = 0) -> List[CrashRestartReport]:
    """Seeded kill/restart campaign over the durable WAL backend.

    Every node runs a real :class:`~repro.store.WalBackend` (through the
    Vfs shim, onto real temp files).  For each kill phase — before the
    fsync barrier, torn mid-flush, after the barrier — the sweep kills
    two seeded victims of a 14-node, k=4 deployment, restarts each from
    its journal alone (RAM gone), and rejoins it.  Three oracles, in
    increasing scope:

    1. the recovered state digest matches some committed prefix of the
       pre-crash append history (never a state that was never current);
    2. replay is idempotent on the real post-crash files;
    3. after recovery + repair + a scrub fixpoint, the global audit is
       clean with **zero** lost files — a kill that spares a file's
       other replicas may never cost the file (§3.5's claim, now with
       the storage plane actually losing its page cache).
    """
    return [_run_crash_restart_phase(seed, phase) for phase in CRASH_PHASES]


def durability_bench(
    reports: List[CrashRestartReport], seed: int
) -> Dict[str, object]:
    """The committed BENCH_durability payload: outcome-only, no timing.

    Every field is derived from seeded, hash-seed-free state, so the
    file is byte-identical across runs and ``PYTHONHASHSEED`` values —
    CI diffs it directly.
    """
    cells = [asdict(c) for r in reports for c in r.cells]
    payload: Dict[str, object] = {
        "scenario": "crash_restart",
        "version": 1,
        "seed": seed,
        "phases": [r.phase for r in reports],
        "cells": len(cells),
        "kills": len(cells),
        "lost_files": sum(r.lost_files for r in reports),
        "audits_ok": all(r.audit_ok for r in reports),
        "in_committed_window": all(c["in_committed_window"] for c in cells),
        "replay_idempotent": all(c["replay_idempotent"] for c in cells),
        "records_replayed": sum(c["records_replayed"] for c in cells),
        "records_skipped": sum(c["records_skipped"] for c in cells),
        "truncated_bytes": sum(c["truncated_bytes"] for c in cells),
        "restored_entries": sum(c["restored_entries"] for c in cells),
    }
    blob = json.dumps({"cells": cells, "summary": payload}, sort_keys=True)
    payload["checksum"] = hashlib.sha256(blob.encode("ascii")).hexdigest()
    return payload


# ------------------------------------------------------------------ CLI


def _format_report(r: ChaosReport) -> str:
    parts = [
        f"{r.scenario:28s}",
        f"lookups {r.lookups_succeeded}/{r.lookups_attempted}",
        f"({100 * r.lookup_success:6.2f}%)",
        f"attempts/op {r.mean_attempts:.2f}",
        f"hedged {r.hedged_successes}",
        f"lost-msgs {r.messages_lost}",
        f"lost-files {r.lost_files}",
        f"audit {'ok' if r.audit_ok else 'VIOLATED'}",
    ]
    line = "  ".join(parts)
    if r.lost_file_ids:
        line += "\n" + " " * 30 + "lost: " + ", ".join(r.lost_file_ids)
    if r.bitrot_corruptions:
        line += (
            "\n" + " " * 30
            + f"disk: rot {r.bitrot_corruptions}"
            + f"  repairs {r.read_repairs}  re-repl {r.re_replications}"
            + f"  corrupt-files {r.corrupt_files}"
            + f" (unrecoverable {r.unrecoverable_files})"
        )
    if r.unrecoverable_file_ids:
        line += (
            "\n" + " " * 30 + "unrecoverable: "
            + ", ".join(r.unrecoverable_file_ids)
        )
    if r.healed_file_ids:
        line += "\n" + " " * 30 + "healed: " + ", ".join(r.healed_file_ids)
    return line


#: ``--scenario all`` runs these in order: each sweep (a list of
#: reports) with the oracle that sits beside its runner.
SIM_SCENARIOS = {
    "loss-sweep": (run_loss_sweep, loss_sweep_failures),
    "partition": (lambda seed: [run_partition_heal(seed)], partition_failures),
    "durability": (run_durability_demo, durability_failures),
    "bitrot": (run_bitrot_sweep, bitrot_failures),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.chaos",
        description="PAST chaos harness: loss sweeps, partitions, crash storms.",
    )
    parser.add_argument(
        "--scenario",
        choices=[*SIM_SCENARIOS, "crash-restart", "live", "all"],
        default="all",
        help="crash-restart runs the durable-WAL kill/restart sweep on "
             "real temp files; live runs the same chaos story over a "
             "real asyncio-TCP cluster with socket-level fault "
             "injection; neither is part of 'all'",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output (stable across runs)")
    parser.add_argument(
        "--bench-out", metavar="PATH", default=None,
        help="(crash-restart/live only) write the BENCH_durability / "
             "BENCH_live_chaos payload here",
    )
    args = parser.parse_args(argv)

    if args.scenario == "crash-restart":
        return _main_crash_restart(args)
    if args.scenario == "live":
        return _main_live(args)
    if args.bench_out:
        parser.error("--bench-out needs --scenario crash-restart or live")

    reports: List[ChaosReport] = []
    failures: List[str] = []
    for name in SIM_SCENARIOS if args.scenario == "all" else [args.scenario]:
        run, oracle = SIM_SCENARIOS[name]
        sweep = run(seed=args.seed)
        reports.extend(sweep)
        failures.extend(oracle(sweep))
    lines = [_format_report(r) for r in reports]
    combined = "".join(r.digest for r in reports).encode("ascii")
    lines += ["", "combined trace digest: " + hashlib.sha256(combined).hexdigest()]
    payload = {"reports": [json.loads(r.to_json()) for r in reports]}
    print(render_run(args.seed, payload, lines, failures, "chaos", args.json))
    return 1 if failures else 0


def render_run(seed: int, payload: dict, lines: List[str],
               failures: List[str], what: str, as_json: bool) -> str:
    """One run as stable JSON, or as text ending in its oracles' verdict."""
    if as_json:
        return json.dumps(
            {"seed": seed, **payload, "failures": failures},
            sort_keys=True, indent=2,
        )
    verdict_lines = [f"FAIL: {f}" for f in failures]
    return "\n".join(
        lines + (verdict_lines or [f"all {what} oracles satisfied"])
    )


def write_bench(path: Optional[str], bench: Dict[str, object]) -> None:
    """Write a committed-style BENCH payload to ``path`` (if given)."""
    if path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(bench, sort_keys=True, indent=2) + "\n")


def _main_crash_restart(args) -> int:
    reports = run_crash_restart_sweep(seed=args.seed)
    bench = durability_bench(reports, args.seed)
    failures = [f for r in reports for f in r.oracle_failures()]
    write_bench(args.bench_out, bench)
    lines = []
    for r in reports:
        tail = " ".join(
            f"replay={c.records_replayed}+{c.records_skipped}skip"
            f"/trunc={c.truncated_bytes}B"
            for c in r.cells
        )
        lines.append(
            f"crash-restart/{r.phase:12s}  kills {len(r.cells)}"
            f"  lost-files {r.lost_files}"
            f"  audit {'ok' if r.audit_ok else 'VIOLATED'}  {tail}"
        )
    lines.append("bench checksum: " + bench["checksum"])
    payload = {"reports": [asdict(r) for r in reports], "bench": bench}
    print(render_run(
        args.seed, payload, lines, failures, "crash-restart", args.json
    ))
    return 1 if failures else 0


def _main_live(args) -> int:
    # Imported here: the live harness pulls in repro.net (real sockets),
    # which the sim-only scenarios should not pay for.
    from .live_chaos import render_live_chaos, run_live_sweep

    report = run_live_sweep(args.seed)
    print(render_live_chaos(report, bench_out=args.bench_out, as_json=args.json))
    return 1 if report.oracle_failures() else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
