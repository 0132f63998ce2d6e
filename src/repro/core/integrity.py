"""Anti-entropy scrubbing: background replica verification and repair.

PAST's durability argument (§3.5) assumes the k replicas a file has on
disk are actually readable; silent bit rot violates that assumption
without any node ever *dying*, so the keep-alive/maintenance machinery
never notices.  The scrubber closes the gap the way robust replicated
object stores do:

* each node runs a periodic, jittered virtual-time task that walks its
  local replicas performing *verified reads* (recompute the content
  hash, compare against the file certificate) and read-repairing any
  copy that fails;
* for every file the node is a replica-set member of, it exchanges a
  compact per-fileId digest summary with the other members.  The digest
  is the content hash each holder's copy produced at its last verified
  read (checksum-database semantics, as in ZFS scrub or Merkle-tree
  anti-entropy), so the exchange ships hashes, not replica bytes.  A
  mismatching digest pinpoints the corrupt copy; a live member with no
  entry at all (or a dangling diversion pointer) marks the file for the
  §3.5 repair flow — re-replication happens without waiting for a
  lookup to trip over the damage;
* stale entries for reclaimed files are garbage-collected.

Dead or unreachable nodes are *not* the scrubber's business: keep-alive
failure detection owns those, which keeps the two repair planes from
double-replicating.  Determinism follows the flow-rng-discipline rule:
one dedicated RNG, constructed in ``__init__`` and seeded via
:func:`~repro.core.seeding.derive_seed`, supplies the per-node phase
spread and the per-fire jitter, so scrub schedules never perturb any
other random stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Set

from ..netsim.faults import READ_CORRUPT
from ..netsim.transport import as_transport
from ..pastry import idspace
from .seeding import derive_seed

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.eventsim import PeriodicTimer
    from .network import PastNetwork
    from .node import PastNode
    from ..security import FileCertificate


@dataclass
class IntegrityStats:
    """Counters for the integrity plane's detections and repairs."""

    #: Verified reads during lookups that returned corrupt.
    failed_reads: int = 0
    #: Corrupt copies overwritten in place with a verified donor copy.
    read_repairs: int = 0
    #: Corrupt copies shed from an unwritable disk and re-replicated.
    re_replications: int = 0
    scrub_rounds: int = 0
    scrub_corrupt_found: int = 0
    scrub_missing_found: int = 0
    scrub_stale_dropped: int = 0
    #: Files that went through any heal action (repair or re-replication).
    healed_file_ids: Set[int] = field(default_factory=set)

    def snapshot(self) -> dict:
        """JSON-friendly summary (healed fids sorted for stable output)."""
        return {
            "failed_reads": self.failed_reads,
            "read_repairs": self.read_repairs,
            "re_replications": self.re_replications,
            "scrub_rounds": self.scrub_rounds,
            "scrub_corrupt_found": self.scrub_corrupt_found,
            "scrub_missing_found": self.scrub_missing_found,
            "scrub_stale_dropped": self.scrub_stale_dropped,
            "healed_file_ids": sorted(self.healed_file_ids),
        }


class AntiEntropyScrubber:
    """Per-node periodic scrub tasks over a :class:`PastNetwork`.

    ``interval`` is the virtual-time scrub period; each node's timer is
    phase-spread uniformly over one interval at :meth:`watch` time and
    jittered by up to ``jitter`` per fire, so a fleet of scrubbers never
    synchronizes into a thundering herd.  All draws come from one RNG
    seeded with ``derive_seed(seed, "anti-entropy-scrub")``.
    """

    def __init__(
        self,
        sim,
        network: "PastNetwork",
        interval: float = 5.0,
        jitter: float = 0.0,
        seed: int = 0,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not 0.0 <= jitter < interval:
            raise ValueError("jitter must be in [0, interval)")
        # ``sim`` may be a raw EventSimulator (the historical signature)
        # or any Transport; timers go through the seam either way.
        self.transport = as_transport(sim, network.pastry)
        self.network = network
        self.interval = interval
        self.jitter = jitter
        self.rng = random.Random(derive_seed(seed, "anti-entropy-scrub"))
        self._timers: Dict[int, "PeriodicTimer"] = {}
        network.pastry.add_recovery_listener(self._on_recover)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Watch every currently-live node (sorted: hashseed-independent)."""
        for node_id in sorted(self.network.pastry.node_ids):
            self.watch(node_id)

    def watch(self, node_id: int) -> None:
        """Start (or keep) the periodic scrub task for one node."""
        if node_id in self._timers:
            return
        spread = self.rng.random() * self.interval
        jitter_fn = None
        if self.jitter > 0.0:
            jitter_fn = lambda: self.rng.uniform(-self.jitter, self.jitter)
        self._timers[node_id] = self.transport.every(
            self.interval,
            lambda: self.scrub_node(node_id),
            jitter_fn=jitter_fn,
            first_delay=spread,
        )

    def forget(self, node_id: int) -> None:
        """Stop scrubbing a node (e.g. permanently removed)."""
        timer = self._timers.pop(node_id, None)
        if timer is not None:
            timer.stop()

    def stop(self) -> None:
        for node_id in sorted(self._timers):
            self.forget(node_id)

    def _on_recover(self, node_id: int) -> None:
        """Overlay recovery hook: a returning node resumes scrubbing."""
        self.watch(node_id)

    # ------------------------------------------------------------- scrubbing

    def scrub_node(self, node_id: int) -> None:
        """One scrub round: verify local replicas, exchange digests.

        A crashed node is skipped — repairing around dead nodes is the
        keep-alive plane's job, and acting on unreachable peers here
        would double-replicate.
        """
        net = self.network
        node = net.past_node_or_none(node_id)
        if node is None:
            return
        net.integrity.scrub_rounds += 1
        for fid in node.store.file_ids():  # sorted by contract
            if not net.is_file_registered(fid):
                self._drop_stale(node, fid)
                continue
            if (node.store.holds_file(fid)
                    and node.store.verify_replica(fid) == READ_CORRUPT):
                net.integrity.scrub_corrupt_found += 1
                node.read_repair(fid)
            cert = node.store.certificate_for(fid)
            if cert is not None:
                self._exchange_digests(node, fid, cert)

    def scrub_all(self) -> None:
        """One synchronous scrub round over every live node.

        Harness-facing: equivalent to every timer firing once, used to
        reach an integrity fixpoint at quiescence without running the
        event loop.
        """
        for node_id in sorted(self.network.pastry.node_ids):
            self.scrub_node(node_id)

    # --------------------------------------------------------------- helpers

    def _drop_stale(self, node: "PastNode", fid: int) -> None:
        """Garbage-collect entries for a reclaimed/unregistered file."""
        node.drop_pointer_and_deref(fid)
        dropped = node.store.drop_replica(fid)
        if dropped is not None:
            for ref in sorted(dropped.referrers):
                ref_node = self.network.past_node_or_none(ref)
                if ref_node is not None:
                    ref_node.store.drop_pointer(fid)
        self.network.integrity.scrub_stale_dropped += 1

    def _exchange_digests(self, node: "PastNode", fid: int, cert: "FileCertificate") -> None:
        """Compare per-fileId digests with the other replica-set members.

        One direct RPC per member (the fault plane may lose it; the next
        round retries).  A member whose copy's digest mismatches the
        certificate is asked to read-repair; a live member with no entry
        or a dangling pointer marks the file for the §3.5 repair flow.
        """
        net = self.network
        key = idspace.routing_key(fid)
        kset = node.leafset.closest_nodes(key, cert.k)
        if node.node_id not in kset:
            return
        needs_repair = False
        for member_id in kset:  # closest_nodes: deterministic distance order
            if member_id == node.node_id:
                continue
            member = net.past_node_or_none(member_id)
            if member is None:
                continue  # unreachable: keep-alive's problem, not ours
            delivered, digest = net.transport.send(
                node.node_id, member_id, member.integrity_digest, fid
            )
            if not delivered:
                continue
            holder = member
            if digest is None:
                pointer = member.store.pointers.get(fid)
                if pointer is None:
                    needs_repair = True  # live member without any entry
                    continue
                target = net.past_node_or_none(pointer.target_id)
                if target is None or not target.store.holds_file(fid):
                    needs_repair = True  # dangling diversion pointer
                    continue
                holder = target
                digest = target.integrity_digest(fid)
            if digest != cert.content_hash:
                net.integrity.scrub_corrupt_found += 1
                holder.read_repair(fid)
        if needs_repair and node.store.references_file(fid):
            # Confirm-reread before acting: every member RPC above is a
            # suspension point under a concurrent transport, and a
            # reclaim or shed interleaved there can retire this node's
            # own entry — at which point the repair duty belongs to the
            # file's current replica set, not to us.
            net.integrity.scrub_missing_found += 1
            node.request_repair(fid)
