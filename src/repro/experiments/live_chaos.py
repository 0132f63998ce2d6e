"""Live-cluster chaos: the sim chaos oracles over real asyncio TCP.

:mod:`repro.experiments.chaos` proves the §2.3/§3.5 robustness claims
inside the deterministic simulator; this module re-runs the same story
against the production-shaped plane: a localhost TCP cluster
(:class:`~repro.net.asyncio_transport.AsyncioTransport`) with WAL-durable
stores, a seeded :class:`~repro.net.faults.WireFaultPlan` injecting 10%
message loss, a partition with heal, connection resets mid-frame and
duplicated frames at the socket layer, and a kill schedule that stops
node processes mid-traffic and later restarts them from their journals.

The oracles are the sim sweeps' oracles, verbatim:

* **Availability** — resilient clients (retry + randomized routing +
  hedged replica fallback) keep lookup success ≥99% under 10% loss,
  judged over the steady rounds (the sim loss-sweep's population);
  rounds with an undetected corpse or an active partition may degrade,
  exactly as the sim's partition-heal scenario documents, and answer to
  the durability/audit oracles instead.
* **Durability** — after heal + failure detection + repair, every
  inserted file is retrievable (zero lost files) and each WAL restart
  recovered exactly the pre-kill entry set.
* **Consistency** — the post-heal invariant audit is clean.
* **Parity** — the same :class:`~repro.netsim.faults.FaultSpec` driven
  through the sim and wire fault planes yields the identical
  loss/partition verdict sequence (:func:`repro.net.faults.decision_parity`),
  so the two engines agree about *which* adversity they injected.

Determinism: the workload is sequential and single-threaded, the plan's
clock is the harness's logical round counter (never wall time), every
injected decision comes from seeded RNGs, and injected losses fail fast
instead of waiting out real deadlines — so the bench payload
(:func:`live_chaos_bench`) is byte-identical across runs and
``PYTHONHASHSEED`` values, and CI diffs it directly.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..core import PastNetwork, RetryPolicy, derive_seed
from ..core.episode import Episode, verdict
from ..net.differential import build_cluster, graceful_shutdown, restart_from_wal
from ..net.faults import WireFaultPlan, decision_parity
from ..netsim.faults import FaultSpec
from .chaos import render_run, write_bench

__all__ = ["LiveChaosReport", "run_live_sweep",
           "live_chaos_bench", "render_live_chaos"]

# The one live scenario: cluster, workload, and wire adversity.
N_NODES = 12
N_FILES = 18
#: Lookup rounds; every round looks up every successfully inserted file
#: once, from a seeded-random live client.
LOOKUP_ROUNDS = 6
#: Uniform per-leg loss probability (the sim sweep's headline rate).
LOSS = 0.10
#: Mean injected per-leg delay (seconds of real sleep; exponential).
DELAY_MEAN = 0.001
#: Per-leg duplication probability on route legs.
DUPLICATE = 0.02
#: Wire-only probability a surviving leg is torn mid-frame.
RESET = 0.02
#: Seeded process kills (with WAL restart two rounds later).
KILLS = 2
#: Logical round the partition activates / heals at.
PARTITION_ROUND = 4.0
PARTITION_HEAL_ROUND = 5.0
#: Client resilience; also derives the transport's RPC deadlines.
POLICY = RetryPolicy(max_attempts=6)


@dataclass
class LiveChaosReport:
    """Everything one live chaos run measured, JSON-serializable."""

    scenario: str
    seed: int
    nodes: int
    files: int
    rounds: int
    inserts_attempted: int = 0
    inserts_succeeded: int = 0
    lookups_attempted: int = 0
    lookups_succeeded: int = 0
    #: Lookups issued in rounds where only link loss was active — the
    #: population the sim loss-sweep's ≥99% oracle covers.  Rounds with
    #: an undetected corpse or an active partition are *degraded*:
    #: availability may dip there (the sim's partition-heal scenario
    #: documents the same), and the oracles for those rounds are
    #: durability + audit, judged post-heal.
    steady_attempted: int = 0
    steady_succeeded: int = 0
    degraded_attempted: int = 0
    degraded_succeeded: int = 0
    #: Per-round ledger: (round, kind, succeeded, attempted).
    round_ledger: List[List[object]] = field(default_factory=list)
    total_attempts: int = 0
    hedged_successes: int = 0
    kills_applied: int = 0
    restarts_applied: int = 0
    #: Every WAL restart recovered exactly the pre-kill entry set.
    recovered_all: bool = True
    #: Post-heal durability oracle: inserted files a resilient client
    #: could not retrieve after quiescence.
    lost_files: int = 0
    lost_file_ids: List[str] = field(default_factory=list)
    audit_ok: bool = True
    violations: List[str] = field(default_factory=list)
    #: Injected-fault counters (the plan's view of what it did).
    injected: Dict[str, int] = field(default_factory=dict)
    #: Classified observed-failure counters (the transport's view).
    wire: Dict[str, int] = field(default_factory=dict)
    #: Sim-vs-wire verdict parity over the scripted query stream.
    parity: Dict[str, object] = field(default_factory=dict)
    #: Graceful-shutdown outcome (drain + WAL flush barrier).
    shutdown: Dict[str, object] = field(default_factory=dict)

    @property
    def lookup_success(self) -> float:
        if not self.lookups_attempted:
            return 1.0
        return self.lookups_succeeded / self.lookups_attempted

    @property
    def steady_success(self) -> float:
        if not self.steady_attempted:
            return 1.0
        return self.steady_succeeded / self.steady_attempted

    def oracle_failures(self) -> List[str]:
        """The sim sweeps' acceptance oracles, applied to the live run.

        Availability (≥99%) is judged over the steady rounds, matching
        the sim's loss-sweep leg; partition and corpse-window rounds are
        judged the way the sim's partition-heal and durability scenarios
        are — zero lost files and a clean audit after heal.
        """
        failures = []
        if self.inserts_succeeded != self.inserts_attempted:
            failures.append(
                f"inserts failed under loss: {self.inserts_succeeded}"
                f"/{self.inserts_attempted}"
            )
        if self.steady_success < 0.99:
            failures.append(
                "steady-round lookup success under 10% loss fell below "
                f"99%: {self.steady_success:.4f}"
            )
        if self.lost_files:
            failures.append(
                "files unretrievable after heal: " + ", ".join(self.lost_file_ids)
            )
        if not self.recovered_all:
            failures.append("a WAL restart lost acknowledged entries")
        if not self.audit_ok:
            failures.append("post-heal audit dirty: " + "; ".join(self.violations))
        if not self.parity.get("ok", False):
            failures.append(
                "sim/wire fault-verdict parity diverged at leg "
                f"{self.parity.get('first_divergence')}"
            )
        return failures


def _spec_for(seed: int, node_ids: List[int]) -> FaultSpec:
    """The shared FaultSpec: kills, partition and link noise, seeded.

    Victims and the partitioned minority are disjoint seeded choices, so
    the partition exercises retry/hedge across a cut while the kill path
    exercises refused connections and WAL restarts — one failure mode
    per file is recoverable by construction (k replicas, minority < k).
    """
    rng = random.Random(derive_seed(seed, "live-cast"))
    ids = sorted(node_ids)
    victims = rng.sample(ids, KILLS)
    minority_pool = [n for n in ids if n not in victims]
    minority = rng.sample(minority_pool, max(2, len(ids) // 4))
    crashes = tuple(
        (1.0 + i, victim, 3.0 + i, False)
        for i, victim in enumerate(victims)
    )
    return FaultSpec(
        seed=derive_seed(seed, "live-spec"),
        loss=LOSS,
        delay_mean=DELAY_MEAN,
        duplicate=DUPLICATE,
        partitions=((PARTITION_ROUND, PARTITION_HEAL_ROUND,
                     tuple(sorted(minority))),),
        crashes=crashes,
    )


def _pick_client(net: PastNetwork, rng: random.Random,
                 down: set) -> int:
    ids = [n for n in net.pastry.node_ids if n not in down]
    return ids[rng.randrange(len(ids))]


def _kill(net: PastNetwork, transport, victim: int,
          pre_files: Dict[int, List[int]]) -> None:
    """Stop a node's process mid-traffic: server gone, WAL crashed.

    The overlay is *not* told yet — traffic this round runs against the
    corpse (refused connections, severed pooled frames), which is what
    the client resilience loop is for.  Detection and repair happen at
    the round boundary, like the sim's probe cycle concluding.
    """
    node = net.past_node_or_none(victim)
    pre_files[victim] = sorted(node.store.file_ids())
    node.store.backend.crash()
    transport.stop_server(victim)


def run_live_sweep(seed: int = 2201) -> LiveChaosReport:
    """Seeded insert/lookup workload over localhost TCP under chaos.

    Timeline (logical rounds, which are also the fault plan's clock):
    round 0 inserts every file under 10% loss; each lookup round then
    looks up every file once from a random live client.  Kill *i* fires
    at round ``1+i`` — its round's lookups run against the corpse before
    detection — and restarts from its WAL two rounds later.  A minority
    partition spans ``[PARTITION_ROUND, PARTITION_HEAL_ROUND)``.  After
    the last round the plan is removed (heal), stragglers restart,
    repair runs to fixpoint, and the oracles judge the aftermath.
    """
    base = Path(tempfile.mkdtemp(prefix="repro-live-"))
    net, transport = build_cluster(
        N_NODES, seed, engine="asyncio", data_dir=base, policy=POLICY,
    )
    assert transport is not None
    report = LiveChaosReport(
        scenario="live-chaos", seed=seed, nodes=N_NODES,
        files=N_FILES, rounds=LOOKUP_ROUNDS,
    )
    try:
        node_ids = sorted(net.pastry.node_ids)
        spec = _spec_for(seed, node_ids)
        clock = {"now": 0.0}
        plan = WireFaultPlan(spec, reset=RESET).bind_clock(
            lambda: clock["now"]
        )
        transport.install_faults(plan)

        rng = random.Random(derive_seed(seed, "live-workload"))
        owner = net.create_client("live-chaos")
        down: set = set()
        pre_files: Dict[int, List[int]] = {}

        def restart(victim: int) -> None:
            """Bring a killed node back from its WAL, repair around it."""
            ok = restart_from_wal(
                net, transport, base, victim, pre_files[victim]
            )["recovered_all"]
            if victim not in net._failed_past:  # confirm the rebirth registered
                net.repair_all()
            if report.recovered_all:  # and-fold: one bad restart sticks
                report.recovered_all = ok
            report.restarts_applied += 1
            down.discard(victim)

        # Round 0: inserts, under loss (client reroutes lost requests).
        fids = []
        for i in range(N_FILES):
            client = _pick_client(net, rng, down)
            content = (rng.getrandbits(8 * 64).to_bytes(64, "big")
                       * rng.randrange(1, 9))
            result = net.insert(
                f"live-file-{i}", owner, content=content,
                client_id=client, policy=POLICY,
            )
            if result.success:
                fids.append(result.file_id)
        report.inserts_attempted = N_FILES
        report.inserts_succeeded = len(fids)

        # Lookup rounds with mid-traffic kills, restarts and partition.
        for r in range(1, LOOKUP_ROUNDS + 1):
            clock["now"] = float(r)
            for event in plan.due_restarts(clock["now"]):
                restart(event.node_id)
            fresh_kills = []
            for event in plan.due_crashes(clock["now"]):
                _kill(net, transport, event.node_id, pre_files)
                down.add(event.node_id)
                fresh_kills.append(event.node_id)
                report.kills_applied += 1
            # A round is degraded while a corpse is undetected (its
            # round's traffic runs against it before the detection pass
            # at the round boundary) or a partition is active.
            degraded = bool(fresh_kills) or (
                PARTITION_ROUND <= clock["now"] < PARTITION_HEAL_ROUND
            )
            succeeded = 0
            for fid in fids:
                client = _pick_client(net, rng, down)
                result = net.lookup(fid, client_id=client, policy=POLICY)
                report.lookups_attempted += 1
                report.total_attempts += result.attempts
                if result.success:
                    succeeded += 1
                    report.lookups_succeeded += 1
                    if result.hedged:
                        report.hedged_successes += 1
            if degraded:
                report.degraded_attempted += len(fids)
                report.degraded_succeeded += succeeded
            else:
                report.steady_attempted += len(fids)
                report.steady_succeeded += succeeded
            if len(report.round_ledger) < r:  # one ledger entry per round
                report.round_ledger.append(
                    [r, "degraded" if degraded else "steady",
                     succeeded, len(fids)]
                )
            # The round-boundary failure-detection + repair pass.
            for victim in fresh_kills:
                net.fail_node(victim)
                if victim in net._failed_past:  # confirm the crash registered
                    net.repair_all()

        # Heal the wire plane, then the shared protocol (core.episode).
        # Every kill was detected at its round boundary, so stragglers
        # are the nodes still down; the clock here is the round counter,
        # so the episode's own simulator has nothing pending.
        clock["now"] = LOOKUP_ROUNDS + 1.0
        report.injected = plan.injected_snapshot()
        transport.install_faults(None)
        Episode(net).quiesce(restart=restart)

        # Oracles: every file retrievable, clean audit, verdict parity.
        for fid in fids:
            client = _pick_client(net, rng, down)
            outcome = net.lookup(fid, client_id=client, policy=POLICY)
            if not outcome.success:
                report.lost_files += 1
                if f"{fid:#x}" not in report.lost_file_ids:
                    report.lost_file_ids.append(f"{fid:#x}")
        post = verdict(net)
        report.audit_ok, report.violations = post.audit_ok, post.violations
        report.parity = decision_parity(
            spec, node_ids, length=256, reset=RESET
        )
        report.wire = transport.wire.snapshot()
        return report
    finally:
        report.shutdown = graceful_shutdown(transport, net)
        shutil.rmtree(base, ignore_errors=True)


def live_chaos_bench(report: LiveChaosReport) -> Dict[str, object]:
    """The committed BENCH_live_chaos payload: outcome-only, no timing.

    Every field derives from seeded state consumed in a fixed sequential
    order, so the file is byte-identical across runs and
    ``PYTHONHASHSEED`` values — CI diffs it directly.
    """
    payload: Dict[str, object] = {
        "scenario": "live_chaos",
        "version": 1,
        "seed": report.seed,
        "nodes": report.nodes,
        "files": report.files,
        "rounds": report.rounds,
        "inserts": f"{report.inserts_succeeded}/{report.inserts_attempted}",
        "lookups": f"{report.lookups_succeeded}/{report.lookups_attempted}",
        "lookup_success": round(report.lookup_success, 6),
        "steady": f"{report.steady_succeeded}/{report.steady_attempted}",
        "steady_success": round(report.steady_success, 6),
        "degraded": f"{report.degraded_succeeded}/{report.degraded_attempted}",
        "rounds_ledger": [list(row) for row in report.round_ledger],
        "total_attempts": report.total_attempts,
        "hedged_successes": report.hedged_successes,
        "kills": report.kills_applied,
        "restarts": report.restarts_applied,
        "recovered_all": report.recovered_all,
        "lost_files": report.lost_files,
        "audit_ok": report.audit_ok,
        "injected": dict(report.injected),
        "wire": dict(report.wire),
        "parity_ok": bool(report.parity.get("ok", False)),
        "parity_losses": report.parity.get("losses"),
        "parity_partition_drops": report.parity.get("partition_drops"),
        "oracle_failures": report.oracle_failures(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["checksum"] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return payload


def render_live_chaos(report: LiveChaosReport, bench_out: Optional[str] = None,
                      as_json: bool = False) -> str:
    """Write the bench payload to ``bench_out`` (if given); render the run.

    The one report behind both front doors, ``repro serve --chaos`` and
    ``python -m repro.experiments.chaos --scenario live``.
    """
    bench = live_chaos_bench(report)
    write_bench(bench_out, bench)
    lines = [f"bench written to {bench_out}"] if bench_out else []
    lines += [
        f"live chaos on {report.nodes} nodes / {report.files} files: "
        f"lookups {report.lookups_succeeded}/{report.lookups_attempted} "
        f"(steady {report.steady_succeeded}/{report.steady_attempted}, "
        f"degraded {report.degraded_succeeded}/{report.degraded_attempted})",
        f"injected: {report.injected}  observed: {report.wire}",
        f"kills {report.kills_applied}  restarts {report.restarts_applied} "
        f"(recovered_all={report.recovered_all})  "
        f"lost files {report.lost_files}  "
        f"audit {'ok' if report.audit_ok else 'VIOLATED'}  "
        f"parity {'ok' if report.parity.get('ok') else 'DIVERGED'}",
        f"bench checksum: {bench['checksum']}",
    ]
    return render_run(
        report.seed, {"report": asdict(report), "bench": bench}, lines,
        report.oracle_failures(), "live chaos", as_json,
    )
