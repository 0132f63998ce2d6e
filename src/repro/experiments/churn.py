"""Availability and churn experiments (extension of the paper's §2/§5).

The paper fixes ``k = 5`` "based on the measurements and analysis in [8],
which considers availability of desktop computers in a corporate network
environment", and verifies (without publishing a table) "that the storage
invariants are maintained properly despite random node failures and
recoveries".  These drivers quantify both claims:

* :func:`run_availability_sweep` — fraction of files that survive a batch
  of *simultaneous* node failures (faster than the recovery period), as a
  function of the replication factor k and the failed fraction.  A file
  is lost only when all k replicas fail at once, so availability rises
  steeply with k — the paper's justification for k = 5.
* :func:`run_churn_experiment` — extended random churn (failures,
  recoveries, joins) with live maintenance; reports availability and the
  invariant-audit outcome over time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import PastConfig, PastNetwork, audit, derive_seed
from ..core.episode import build_deployment, lognormal_size
from ..workloads import DISTRIBUTIONS


@dataclass
class AvailabilityResult:
    """Survival statistics for one (k, fail_fraction) cell."""

    k: int
    fail_fraction: float
    files: int
    available_after_failures: int
    available_after_repair: int
    degraded_after_repair: int
    elapsed_s: float

    @property
    def availability(self) -> float:
        return self.available_after_failures / self.files if self.files else 0.0

    @property
    def availability_after_repair(self) -> float:
        return self.available_after_repair / self.files if self.files else 0.0


def build_and_fill(rng: random.Random, k: int, n_nodes: int,
                   capacity_scale: float, seed: int, n_files: int,
                   owner: str = "avail", prefix: str = "a") -> PastNetwork:
    """The d1-capacity deployment the availability experiments share."""
    return build_deployment(
        PastConfig(l=16, k=k, seed=seed, cache_policy="none"),
        DISTRIBUTIONS["d1"].sample(n_nodes, rng, capacity_scale),
        n_files, lognormal_size(2.0, 200_000), rng, owner=owner, prefix=prefix,
    )


def run_availability_sweep(
    k_values: Optional[List[int]] = None,
    fail_fractions: Optional[List[float]] = None,
    n_nodes: int = 60,
    capacity_scale: float = 0.25,
    n_files: int = 400,
    seed: int = 0,
) -> List[AvailabilityResult]:
    """Measure file survival under simultaneous failures, per k."""
    k_values = k_values or [1, 2, 3, 5]
    fail_fractions = fail_fractions or [0.05, 0.10, 0.20]
    results: List[AvailabilityResult] = []
    for k in k_values:
        for fraction in fail_fractions:
            start = time.perf_counter()
            net = build_and_fill(
                random.Random(seed), k, n_nodes, capacity_scale, seed, n_files
            )
            fids = net.live_file_ids()
            rng = random.Random(derive_seed(seed, "availability-victims", k, fraction))
            victims = list(net.pastry.node_ids)
            rng.shuffle(victims)
            victims = victims[: max(1, int(fraction * len(victims)))]
            net.fail_simultaneously(victims)

            probe = net.nodes()[0].node_id
            alive = sum(net.lookup(fid, probe).success for fid in fids)
            net.repair_all()
            alive_after = sum(net.lookup(fid, probe).success for fid in fids)
            results.append(
                AvailabilityResult(
                    k=k,
                    fail_fraction=fraction,
                    files=len(fids),
                    available_after_failures=alive,
                    available_after_repair=alive_after,
                    degraded_after_repair=len(net.degraded_files),
                    elapsed_s=time.perf_counter() - start,
                )
            )
    return results


@dataclass
class ChurnResult:
    """Outcome of an extended churn run."""

    rounds: int
    files: int
    final_available: int
    audits_passed: int
    audits_total: int
    lost_files: int
    elapsed_s: float
    timeline: List[dict] = field(default_factory=list)


def run_churn_experiment(
    n_nodes: int = 60,
    capacity_scale: float = 0.25,
    n_files: int = 300,
    rounds: int = 40,
    k: int = 3,
    seed: int = 0,
    audit_every: int = 5,
) -> ChurnResult:
    """Random failures/recoveries/joins with live maintenance.

    Reproduces the paper's (unplotted) §5 verification that "the storage
    invariants are maintained properly despite random node failures and
    recoveries".
    """
    start = time.perf_counter()
    net = build_and_fill(
        random.Random(seed), k, n_nodes, capacity_scale, seed, n_files
    )
    fids = net.live_file_ids()
    rng = random.Random(derive_seed(seed, "churn-events"))
    failed: List[int] = []
    audits_passed = audits_total = 0
    timeline: List[dict] = []
    for round_ in range(rounds):
        roll = rng.random()
        if roll < 0.35 and len(net) > n_nodes // 2:
            victim = rng.choice(net.pastry.node_ids)
            net.fail_node(victim)
            failed.append(victim)
            action = "fail"
        elif roll < 0.60 and failed:
            net.recover_node(failed.pop(rng.randrange(len(failed))))
            action = "recover"
        else:
            net.add_node(int(27_000_000 * capacity_scale))
            action = "join"
        if round_ % audit_every == 0:
            audits_total += 1
            ok = audit(net).ok
            audits_passed += ok
            timeline.append(
                {
                    "round": round_,
                    "action": action,
                    "nodes": len(net),
                    "audit_ok": ok,
                    "degraded": len(net.degraded_files),
                }
            )
    probe = net.nodes()[0].node_id
    available = sum(net.lookup(fid, probe).success for fid in fids)
    return ChurnResult(
        rounds=rounds,
        files=len(fids),
        final_available=available,
        audits_passed=audits_passed,
        audits_total=audits_total,
        lost_files=len(fids) - available,
        elapsed_s=time.perf_counter() - start,
        timeline=timeline,
    )
