"""Whole-system invariant auditing.

The paper verifies "that the storage invariants are maintained properly
despite random node failures and recoveries".  This module implements that
audit for tests and examples:

* **k-replica invariant** — for every live file, each of the k live nodes
  numerically closest to the fileId holds either a replica or a pointer to
  a distinct diverted replica (files the network has flagged as degraded
  under extreme utilization are exempt, per §3.5).
* **pointer integrity** — every diversion pointer targets a live node that
  actually holds the replica, and the replica's referrer bookkeeping
  matches.
* **integrity** — every held replica's content hash matches its
  certificate, and every live file's replica set retains at least one
  verified copy.  The audit reads the ``corrupted`` flags replicas carry
  from their last *verified read* — it never consults the fault plan
  itself, so auditing stays free of RNG draws and cannot perturb a
  deterministic schedule.  Soundness caveat: rot is evaluated lazily at
  read time, so run :meth:`~repro.core.network.PastNetwork.verify_all_replicas`
  first when you need latent (never-read) damage materialized.  A file
  whose *every* surviving copy is corrupt is unrecoverable — reported
  like ``lost_files`` (an availability outcome), while an unhealed
  corrupt copy alongside a verified one is a genuine violation: repair
  machinery had a donor and did not converge.
* **capacity** — no node stores more replica bytes than its capacity, and
  replica + cache bytes also fit.
* **accounting** — the network's global byte counters equal the per-node
  sums.
* **overlay** (opt-in, ``check_overlay=True``) — leaf-set symmetry and
  leaf-set/routing-table entry liveness at failure-detection fixpoint;
  used by the schedule explorer (``repro.devtools.explore``) as a
  quiescence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..pastry import idspace
from .network import PastNetwork


@dataclass
class Violation:
    """One invariant violation found by the auditor."""

    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.kind}] {self.detail}"


@dataclass
class AuditReport:
    """Result of a full audit."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    nodes_checked: int = 0
    degraded_exempt: int = 0
    #: Files with no live physical replica at all.  A file is lost exactly
    #: when all k replicas fail within one recovery period (§2.1) — a
    #: documented availability limit, not an invariant violation.
    lost_files: int = 0
    #: The fileIds behind ``lost_files``, so a durability oracle can say
    #: exactly which files died, not just how many.
    lost_file_ids: List[int] = field(default_factory=list)
    #: Live files with at least one copy whose last verified read found
    #: corruption (includes the unrecoverable ones below).
    corrupt_files: int = 0
    corrupt_file_ids: List[int] = field(default_factory=list)
    #: Live files whose *every* surviving copy is corrupt — the bytes are
    #: gone even though replicas exist.  Like ``lost_files``, this is an
    #: availability outcome (all copies damaged before repair could run),
    #: not a bookkeeping violation.
    unrecoverable_files: int = 0
    unrecoverable_file_ids: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, detail: str) -> None:
        self.violations.append(Violation(kind, detail))


def audit(
    network: PastNetwork,
    check_replicas: bool = True,
    check_overlay: bool = False,
) -> AuditReport:
    """Audit every invariant; returns a report listing all violations.

    ``check_overlay`` additionally audits the Pastry overlay itself —
    leaf-set symmetry and routing-state liveness.  Those properties only
    hold at a failure-detection *fixpoint* (every crash either detected
    and propagated, or the node recovered and re-announced), so the flag
    is opt-in: enable it at quiescence, not mid-churn.
    """
    report = AuditReport()
    _audit_nodes(network, report)
    if check_replicas:
        _audit_files(network, report)
    if check_overlay:
        _audit_overlay(network, report)
    _audit_accounting(network, report)
    return report


def _audit_nodes(network: PastNetwork, report: AuditReport) -> None:
    for node in network.nodes():
        report.nodes_checked += 1
        store = node.store
        replica_bytes = sum(r.size for r in store.primaries.values()) + sum(
            r.size for r in store.diverted_in.values()
        )
        if replica_bytes != store.used:
            report.add(
                "accounting",
                f"node {node.node_id:#x}: used={store.used} but replicas sum to {replica_bytes}",
            )
        if store.used > store.capacity:
            report.add(
                "capacity",
                f"node {node.node_id:#x}: replicas {store.used} exceed capacity {store.capacity}",
            )
        if store.used + store.cache.bytes_used > store.capacity:
            report.add(
                "capacity",
                f"node {node.node_id:#x}: replicas+cache exceed capacity",
            )
        for fid, pointer in store.pointers.items():
            target = network.past_node_or_none(pointer.target_id)
            if target is None:
                report.add(
                    "pointer", f"pointer for {fid:#x} targets dead node {pointer.target_id:#x}"
                )
                continue
            if not target.store.holds_file(fid):
                report.add(
                    "pointer",
                    f"pointer for {fid:#x} targets node without the replica",
                )
                continue
            replica = target.store.get_replica(fid)
            if replica.diverted and node.node_id not in replica.referrers:
                report.add(
                    "pointer",
                    f"replica of {fid:#x} on {target.node_id:#x} missing referrer "
                    f"{node.node_id:#x}",
                )


def _audit_files(network: PastNetwork, report: AuditReport) -> None:
    # Index of live physical replicas: fid -> [(node_id, replica), ...].
    held = {}
    for node in network.nodes():
        for fid, replica in node.store.primaries.items():
            held.setdefault(fid, []).append((node.node_id, replica))
        for fid, replica in node.store.diverted_in.items():
            held.setdefault(fid, []).append((node.node_id, replica))
    for fid in network.live_file_ids():
        report.files_checked += 1
        copies = held.get(fid)
        if not copies:
            report.lost_files += 1
            report.lost_file_ids.append(fid)
            continue
        corrupt_holders = sorted(nid for nid, replica in copies if replica.corrupted)
        if corrupt_holders:
            report.corrupt_files += 1
            report.corrupt_file_ids.append(fid)
            if len(corrupt_holders) == len(copies):
                report.unrecoverable_files += 1
                report.unrecoverable_file_ids.append(fid)
            elif fid not in network.degraded_files:
                # A verified donor exists, so read-repair/scrub had
                # everything it needed and still left damage behind.
                for nid in corrupt_holders:
                    report.add(
                        "integrity",
                        f"file {fid:#x}: unhealed corrupt replica on node {nid:#x}",
                    )
        if fid in network.degraded_files:
            report.degraded_exempt += 1
            continue
        cert = network.certificate_of(fid)
        k = cert.k if cert is not None else network.config.k
        key = idspace.routing_key(fid)
        kset = network.pastry.k_closest_live(key, k)
        targets_seen = set()
        for member_id in kset:
            member = network.past_node_or_none(member_id)
            if member is None:
                report.add("replicas", f"kset member of {fid:#x} missing from storage layer")
                continue
            if member.store.holds_file(fid):
                targets_seen.add(member_id)
                continue
            pointer = member.store.pointers.get(fid)
            if pointer is None:
                report.add(
                    "replicas",
                    f"file {fid:#x}: kset member {member_id:#x} has neither replica nor pointer",
                )
                continue
            if pointer.target_id in targets_seen:
                report.add(
                    "replicas",
                    f"file {fid:#x}: two kset entries resolve to the same replica",
                )
            targets_seen.add(pointer.target_id)


def _audit_overlay(network: PastNetwork, report: AuditReport) -> None:
    """Overlay fixpoint checks: leaf-set symmetry and entry liveness.

    * every leaf-set member is a live node — a dead entry means a
      keep-alive expiry was never processed;
    * leaf-set membership is symmetric: the j-th clockwise successor
      relationship is mirrored as the j-th counterclockwise predecessor,
      so if A lists a live B then B must list A once both have converged
      on the same live ring;
    * every routing-table entry refers to a live node — witnesses purge
      failed entries eagerly and recovered nodes re-announce, so at
      fixpoint (all crashed nodes recovered or their failure propagated)
      no stale entry should survive;
    * every leaf set is structurally sound: at most ``l`` members and
      ``l/2`` per side, disjoint sides, owner not a member, members
      strictly ascending.
    """
    pastry = network.pastry
    for node in pastry.nodes():
        leafset = node.leafset
        members = leafset.sorted_members()
        smaller, larger = leafset.smaller, leafset.larger
        half = leafset.l // 2
        if (
            len(leafset) > leafset.l
            or len(smaller) > half
            or len(larger) > half
            or not set(smaller).isdisjoint(larger)
            or leafset.owner_id in leafset
            or any(a >= b for a, b in zip(members, members[1:]))
        ):
            report.add("overlay", f"node {node.node_id:#x} leaf set is malformed")
        for peer_id in members:
            peer = pastry.get_live(peer_id)
            if peer is None:
                report.add(
                    "overlay",
                    f"node {node.node_id:#x} leaf set lists dead node {peer_id:#x}",
                )
                continue
            if node.node_id not in peer.leafset:
                report.add(
                    "overlay",
                    f"leaf-set asymmetry: {node.node_id:#x} lists {peer_id:#x} "
                    f"but not vice versa",
                )
        for entry in sorted(node.routing_table.entries()):
            if not pastry.is_live(entry):
                report.add(
                    "overlay",
                    f"node {node.node_id:#x} routing table entry {entry:#x} is dead",
                )


def _audit_accounting(network: PastNetwork, report: AuditReport) -> None:
    total_used = sum(n.store.used for n in network.nodes())
    if total_used != network.bytes_stored:
        report.add(
            "accounting",
            f"global bytes_stored={network.bytes_stored} but per-node sum is {total_used}",
        )
    total_capacity = sum(n.store.capacity for n in network.nodes())
    if total_capacity != network.total_capacity:
        report.add(
            "accounting",
            f"global capacity={network.total_capacity} but per-node sum is {total_capacity}",
        )
