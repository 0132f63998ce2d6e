"""A PAST storage node: the application layered over a Pastry node.

Implements the storage-management behaviour of §3 (replica acceptance,
replica diversion with pointer bookkeeping on nodes *A*, *B* and *C*,
replica maintenance across joins and failures) and the per-node half of
the caching behaviour of §4 (cache lookup and population hooks).

Terminology from the paper, used throughout:

* node **A** — a node among the k numerically closest to a fileId that
  cannot accommodate the replica locally and *diverts* it.  A keeps a
  *primary diversion pointer* in its file table.
* node **B** — the leaf-set node chosen to hold the diverted replica.
* node **C** — the node with the k+1-th closest nodeId, which holds a
  *backup pointer* so that A's failure does not orphan B's replica.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Set, Tuple, Union

from ..netsim.faults import READ_CORRUPT, READ_OK
from ..pastry import idspace
from ..pastry.node import PastryApplication, PastryNode
from ..security import CertificateError, FileCertificate, Smartcard, StoreReceipt
from .config import PastConfig
from .messages import InsertRequest, LookupRequest, ReclaimRequest
from .storage import LocalStore

if TYPE_CHECKING:  # pragma: no cover
    from .network import PastNetwork


class PastNode(PastryApplication):
    """Storage layer of one PAST node."""

    def __init__(
        self,
        pastry_node: PastryNode,
        store: LocalStore,
        smartcard: Smartcard,
        config: PastConfig,
        network: "PastNetwork",
    ):
        self.pastry = pastry_node
        self.store = store
        self.smartcard = smartcard
        self.config = config
        self.network = network
        pastry_node.app = self

    # ------------------------------------------------------------ identity

    @property
    def node_id(self) -> int:
        return self.pastry.node_id

    @property
    def leafset(self):
        return self.pastry.leafset

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PastNode({idspace.format_id(self.node_id, self.config.b, 8)}...)"

    # ----------------------------------------------------- replica-set math

    def is_replica_root_for(self, key: int) -> bool:
        """Am I among the k nodes numerically closest to ``key``?

        A node can only answer this authoritatively when the key falls
        within its leaf set's span (it then knows every node near the
        key); outside that span the answer is no.
        """
        ls = self.leafset
        return ls.covers(key) and ls.owner_rank(key) < self.config.k

    def replica_set_for(self, key: int) -> List[int]:
        """The k nodes numerically closest to ``key``, from my leaf set."""
        return self.leafset.closest_nodes(key, self.config.k)

    # --------------------------------------------------------- Pastry hooks

    def forward(self, node, message, key: int, next_id: Optional[int]) -> bool:
        if isinstance(message, LookupRequest):
            return not self._try_satisfy_lookup(message)
        if isinstance(message, (InsertRequest, ReclaimRequest)):
            if self.is_replica_root_for(key):
                message.coordinator_id = self.node_id
                return False  # stop routing; network layer coordinates here
        return True

    def deliver(self, node, message, key: int) -> None:
        if isinstance(message, (InsertRequest, ReclaimRequest)):
            # We are the numerically closest node; coordinate even if the
            # leaf-set heuristic in forward() did not fire (tiny networks).
            message.coordinator_id = self.node_id

    def on_node_joined(self, node, new_id: int) -> None:
        if self.network.maintenance_enabled:
            self._maintain_after_join(new_id)

    def on_node_failed(self, node, failed_id: int) -> None:
        if self.network.maintenance_enabled:
            self._maintain_after_failure(failed_id)

    # --------------------------------------------------------------- lookup

    def fetch(self, msg: LookupRequest) -> LookupRequest:
        """The hedged-fetch RPC: the request as this node leaves it, served
        (``source`` set) or not, failed verified reads counted either way."""
        self._try_satisfy_lookup(msg)
        return msg

    def _try_satisfy_lookup(self, msg: LookupRequest) -> bool:
        """Serve a lookup locally if possible (replica, cache or pointer).

        Every serve is a *verified read* (§2.2): the content hash of the
        copy about to be returned is recomputed and compared against the
        file certificate.  A corrupt or unreadable copy is never served —
        the attempt fails over to the next holder (via the client's
        hedging) after read-repair has been triggered on the bad copy.
        """
        fid = msg.file_id
        replica = self.store.primaries.get(fid)
        source = "primary"
        if replica is None:
            replica = self.store.diverted_in.get(fid)
            source = "diverted"
        if replica is not None:
            verdict = self.store.verify_replica(fid)
            if verdict == READ_OK:
                return self._respond(msg, source, replica.certificate)
            self._note_failed_read(msg, fid, verdict)
        if self.store.cache.enabled and self.store.verified_cache_hit(fid):
            size = self.store.cache.size_of(fid)
            cert = self.network.certificate_of(fid)
            if cert is not None and cert.size == size:
                return self._respond(msg, "cache", cert)
        pointer = self.store.pointers.get(fid)
        if pointer is not None and pointer.primary:
            target = self.network.past_node_or_none(pointer.target_id)
            if target is not None and target.store.holds_file(fid):
                # One additional RPC to fetch the diverted replica (§3.3).
                msg.extra_hops += 1
                _, verdict = self.network.transport.send(
                    self.node_id, pointer.target_id,
                    target.store.verify_replica, fid, reliable=True,
                )
                if verdict == READ_OK:
                    return self._respond(msg, "pointer", pointer.certificate)
                target._note_failed_read(msg, fid, verdict)
        return False

    def _note_failed_read(self, msg: LookupRequest, fid: int, verdict: str) -> None:
        """A local copy failed its verified read: count the failover and,
        for corruption, start read-repair before the lookup moves on to
        the next holder."""
        msg.integrity_failures += 1
        self.network.integrity.failed_reads += 1
        if verdict == READ_CORRUPT:
            self.read_repair(fid)

    def _respond(self, msg: LookupRequest, source: str, cert: FileCertificate) -> bool:
        msg.source = source
        msg.responder_id = self.node_id
        msg.certificate = cert
        return True

    def cache_routed_file(self, cert: FileCertificate) -> bool:
        """Cache a file routed through this node (insert or lookup, §4)."""
        if self.store.holds_file(cert.file_id):
            return False
        if self.store.cache.consider(cert.file_id, cert.size):
            self.store.note_cached(cert.file_id)
            return True
        return False

    # --------------------------------------------------------------- insert

    def coordinate_insert(self, request: InsertRequest) -> bool:
        """Run the insert protocol as the first of the k closest nodes.

        Verifies the certificate, forwards store requests to the full
        replica set, and rolls everything back if any member can neither
        store nor divert its replica (triggering file diversion at the
        client, §3.4).
        """
        cert = request.certificate
        try:
            cert.verify()
            cert.verify_content(cert.size, request.content)
        except CertificateError as exc:
            request.failure_reason = f"certificate: {exc}"
            return False
        if self.network.is_file_registered(cert.file_id):
            request.failure_reason = "fileId collision"
            return False

        key = idspace.routing_key(cert.file_id)
        # The replication factor is per-file (clients choose k per insert,
        # §2); the certificate carries it.
        replica_set = self.leafset.closest_nodes(key, cert.k)
        if len(replica_set) < cert.k:
            request.failure_reason = "insufficient nodes for k replicas"
            return False

        receipts: List[StoreReceipt] = []
        for member_id in replica_set:
            # The leaf set can name a member that crashed but has not
            # been detected yet (the store RPC goes out and times out:
            # ``call=None``), and the RPC itself can be lost in flight;
            # either way this member cannot acknowledge its replica, so
            # the insert must roll back (and the client re-salts or
            # retries) rather than crash the coordinator.
            member = self.network.past_node_or_none(member_id)
            delivered, reply = self.network.transport.send(
                self.node_id, member_id,
                None if member is None else member.accept_replica,
                cert, request.content, replica_set,
            )
            if delivered and isinstance(reply, StoreReceipt):
                receipts.append(reply)
            else:
                for receipt in receipts:
                    holder = self.network.past_node_or_none(receipt.node_id)
                    if holder is not None:
                        holder.abort_replica(cert.file_id)
                request.failure_reason = (
                    reply if delivered else "replica-set member unreachable"
                )
                return False
        request.receipts = receipts
        request.replica_diversions = sum(r.diverted for r in receipts)
        request.accepted = True
        return True

    def accept_replica(
        self, cert: FileCertificate, content: Optional[bytes], replica_set: List[int]
    ) -> Union[StoreReceipt, str]:
        """Store a primary replica, or divert it within the leaf set (§3.3).

        Returns this node's store receipt, or the reason it refused.
        """
        try:
            cert.verify()
            cert.verify_content(cert.size, content)
        except CertificateError as exc:
            return f"certificate: {exc}"

        if self.store.can_accept(cert.size, self.config.t_pri):
            self.store.store_replica(cert, diverted=False)
            return self.smartcard.issue_store_receipt(cert.file_id, self.node_id, False)

        # Replica diversion: pick node B, install pointers on A (self) and C.
        if self._divert_replica(cert, replica_set) is None:
            return "no storage within leaf set"
        return self.smartcard.issue_store_receipt(cert.file_id, self.node_id, True)

    def _divert_replica(self, cert: FileCertificate, replica_set: List[int]) -> Optional[int]:
        """Divert one replica; returns B's nodeId or None if diversion failed."""
        key = idspace.routing_key(cert.file_id)
        b_id = self._choose_diversion_target(cert.file_id, replica_set)
        if b_id is None:
            return None
        b_node = self.network.past_node(b_id)
        _, accepted = self.network.transport.send(
            self.node_id, b_id, b_node.accept_diverted_replica, cert,
            reliable=True, referrer_id=self.node_id,
        )
        if not accepted:
            return None
        self.store.add_pointer(cert, b_id, primary=True)
        self._install_backup_pointer(cert, b_id, key, exclude=set(replica_set))
        return b_id

    def _choose_diversion_target(
        self, file_id: int, replica_set: Iterable[int]
    ) -> Optional[int]:
        """Pick node B per §3.3.1: in my leaf set, not among the k closest,
        not already holding a diverted replica of this file; maximal free
        space (or uniform-random, as an ablation)."""
        exclude = set(replica_set)
        exclude.add(self.node_id)
        random_pick = self.config.divert_target_policy == "random"
        # Ascending ids: rng.choice under the "random" ablation needs a
        # hashseed-independent candidate order, and of two members with
        # equal free space the one met first is the one to keep.
        candidates = []
        best_id, best_free = None, 0
        for member_id in self.leafset.sorted_members():
            if member_id in exclude:
                continue
            member = self.network.past_node_or_none(member_id)
            if member is None:
                continue
            store = member.store
            if random_pick:
                if not store.holds_file(file_id):
                    candidates.append(member_id)
                continue
            free = store.free
            if (best_id is None or free > best_free) and not store.holds_file(file_id):
                best_id, best_free = member_id, free
        if candidates:
            return self.network.rng.choice(candidates)
        return best_id

    def _install_backup_pointer(
        self, cert: FileCertificate, b_id: int, key: int, exclude: Set[int]
    ) -> None:
        """Install C's backup pointer on the k+1-th closest node (§3.3).

        If B itself is the k+1-th closest the replica already sits there
        and no backup pointer is needed.
        """
        ordered = self.leafset.closest_nodes(key, cert.k + 1)
        extra = [n for n in ordered if n not in exclude]
        if not extra:
            return
        c_id = extra[0]
        if c_id == b_id:
            return
        c_node = self.network.past_node_or_none(c_id)
        b_node = self.network.past_node_or_none(b_id)
        if c_node is None or b_node is None:
            return
        if c_node.store.references_file(cert.file_id):
            # C already has an entry of its own for this file; never
            # clobber it with a backup pointer.
            return
        self.network.transport.send(
            self.node_id, c_id, c_node.store.install_pointer, cert, b_id,
            reliable=True, primary=False,
        )
        replica = b_node.store.diverted_in.get(cert.file_id)
        if replica is not None:
            replica.add_referrer(c_id)

    def accept_diverted_replica(self, cert: FileCertificate, referrer_id: int) -> bool:
        """Node B's half of replica diversion: the stricter t_div policy."""
        try:
            cert.verify()
        except CertificateError:
            return False
        if self.store.holds_file(cert.file_id):
            return False
        if not self.store.can_accept(cert.size, self.config.t_div):
            return False
        replica = self.store.store_replica(cert, diverted=True)
        replica.add_referrer(referrer_id)
        return True

    def abort_replica(self, file_id: int) -> None:
        """Roll back this node's contribution to a failed insert."""
        pointer = self.store.drop_pointer(file_id)
        if pointer is not None and pointer.primary:
            target = self.network.past_node_or_none(pointer.target_id)
            if target is not None:
                replica = target.store.drop_replica(file_id)
                if replica is not None:
                    for ref in sorted(replica.referrers):
                        if ref != self.node_id:
                            ref_node = self.network.past_node_or_none(ref)
                            if ref_node is not None:
                                ref_node.store.drop_pointer(file_id)
            return
        self.store.drop_replica(file_id)

    # -------------------------------------------------------------- reclaim

    def coordinate_reclaim(self, request: ReclaimRequest) -> bool:
        """Run the reclaim protocol within the fileId's neighborhood (§2.2)."""
        fid = request.certificate.file_id
        owner_public = self.network.owner_of(fid)
        if owner_public is None:
            request.failure_reason = "unknown file"
            return False
        try:
            request.certificate.verify(owner_public)
        except CertificateError as exc:
            request.failure_reason = str(exc)
            return False

        reclaimed_any = False
        for member_id in self.leafset.sorted_members_with_owner():
            member = self.network.past_node_or_none(member_id)
            if member is None:
                continue
            receipt = member.reclaim_local(fid)
            if receipt is not None:
                request.receipts.append(receipt)
                reclaimed_any = True
        if not reclaimed_any:
            request.failure_reason = "no replicas found"
        return reclaimed_any

    def reclaim_local(self, file_id: int):
        """Free local storage for a reclaimed file; returns a receipt or None.

        Primary-pointer holders also tear down the diverted replica at B
        and B's other referrer bookkeeping.  Cached copies are *not*
        touched: reclaim has weaker-than-delete semantics (§2.2), and
        caches age out naturally.
        """
        freed = 0
        acted = False
        pointer = self.store.drop_pointer(file_id)
        if pointer is not None:
            acted = True
            if pointer.primary:
                target = self.network.past_node_or_none(pointer.target_id)
                if target is not None:
                    replica = target.store.drop_replica(file_id)
                    if replica is not None:
                        freed += replica.size
        replica = self.store.drop_replica(file_id)
        if replica is not None:
            acted = True
            freed += replica.size
        if not acted:
            return None
        return self.smartcard.issue_reclaim_receipt(file_id, self.node_id, freed)

    # ---------------------------------------------------------- maintenance

    def _responsible_file_ids(self) -> List[int]:
        """Files whose invariant this node may need to initiate repairs for.

        Any local entry qualifies — primary or diverted replica, primary or
        backup pointer — because after churn the designated repair actor
        (the closest kset member with a valid distinct entry) can be
        holding any of these.  The actor rule inside
        :meth:`_restore_file_invariant` still guarantees each repair runs
        exactly once.
        """
        return list(self.store.file_ids())

    def _maintain_after_join(self, new_id: int) -> None:
        """Restore the storage invariant after ``new_id`` joined my leaf set.

        For every file I am responsible for, if the newcomer is now among
        the k closest it must acquire the file (replica or §3.5 pointer to
        the displaced former k-th node); the displaced node may then
        discard its replica.
        """
        for fid in self._responsible_file_ids():
            cert = self.store.certificate_for(fid)
            if cert is None:  # pragma: no cover - entry implies certificate
                continue
            key = idspace.routing_key(fid)
            kset = self.leafset.closest_nodes(key, cert.k)
            if new_id not in kset or self.node_id not in kset:
                continue
            self._restore_file_invariant(fid, newcomer_id=new_id)
            displaced = self._displaced_member(key, kset, new_id, cert.k)
            if displaced is not None:
                displaced_node = self.network.past_node_or_none(displaced)
                if displaced_node is None:
                    continue
                # Confirm-reread: _restore_file_invariant suspends at
                # its repair RPCs; only prompt a discard if the
                # displaced holder still has the primary replica
                # (maybe_discard's own first check, re-read here so the
                # decision is post-suspension).
                if fid not in displaced_node.store.primaries:
                    continue
                displaced_node.maybe_discard(fid)

    def _maintain_after_failure(self, failed_id: int) -> None:
        """Re-create replicas lost to a failed leaf-set member (§3.5)."""
        for fid in self._responsible_file_ids():
            self._restore_file_invariant(fid)

    def _displaced_member(
        self, key: int, kset: List[int], new_id: int, k: int
    ) -> Optional[int]:
        """The node pushed out of the k closest by the newcomer, if any."""
        old_kset = [m for m in self.leafset.closest_nodes(key, k + 1) if m != new_id][:k]
        displaced = [m for m in old_kset if m not in kset]
        return displaced[0] if displaced else None

    def _member_references(self, member_id: int, fid: int) -> bool:
        member = self.network.past_node_or_none(member_id)
        return member is not None and member.store.references_file(fid)

    def _resolve_entries(self, fid: int, kset: List[int]) -> dict:
        """Map each kset member to the physical replica its entry resolves
        to (itself for a stored replica, the pointer target for a valid
        diversion pointer, None for a missing or dangling entry)."""
        out = {}
        for member_id in kset:
            member = self.network.past_node_or_none(member_id)
            if member is None:
                out[member_id] = None
                continue
            if member.store.holds_file(fid):
                out[member_id] = member_id
                continue
            pointer = member.store.pointers.get(fid)
            if pointer is not None:
                target = self.network.past_node_or_none(pointer.target_id)
                if target is not None and target.store.holds_file(fid):
                    out[member_id] = pointer.target_id
                    continue
            out[member_id] = None
        return out

    def _restore_file_invariant(self, fid: int, newcomer_id: Optional[int] = None) -> None:
        """Ensure each of the k closest nodes holds a replica or a pointer
        to a *distinct* diverted replica.

        Entries are resolved to physical replicas; members whose entry is
        missing, dangling, or a duplicate of a closer member's replica
        must (re-)acquire the file.  Only the numerically closest member
        with a valid distinct entry acts, so the repair runs exactly once
        even though every witness of a membership change calls in.
        """
        cert = self.store.certificate_for(fid)
        if cert is None:  # pragma: no cover - callers hold an entry
            return
        key = idspace.routing_key(fid)
        kset = self.leafset.closest_nodes(key, cert.k)
        entries = self._resolve_entries(fid, kset)
        seen: Set[int] = set()
        needs: List[int] = []
        valid: List[int] = []
        for member_id in kset:  # closest_nodes returns distance order
            target = entries[member_id]
            if target is None or target in seen:
                needs.append(member_id)
                continue
            seen.add(target)
            valid.append(member_id)
            member = self.network.past_node_or_none(member_id)
            pointer = member.store.pointers.get(fid) if member else None
            if pointer is not None and not pointer.primary:
                # A pointer now serving as a kset entry must answer lookups.
                member.store.set_pointer_primary(fid, True)
        if not needs:
            self.network.degraded_files.discard(fid)
            return
        if valid:
            if valid[0] != self.node_id:
                return  # a closer valid holder is responsible
        else:
            # No kset member has a usable entry, but the file may survive
            # on an outside holder (e.g. a diverted replica whose referrers
            # all failed at once).  The closest physical holder in the
            # neighborhood takes responsibility.
            if not self.store.holds_file(fid):
                return
            holders = [
                m
                for m in self.leafset.sorted_members_with_owner()
                if (node := self.network.past_node_or_none(m)) is not None
                and node.store.holds_file(fid)
            ]
            if idspace.closest_of(holders, key) != self.node_id:
                return
        all_ok = True
        for member_id in needs:
            member = self.network.past_node_or_none(member_id)
            if member is None:
                all_ok = False
                continue
            # A lost repair RPC leaves this member with its stale entry
            # for now; the file is flagged degraded so a later
            # maintenance pass (or repair_all at quiescence) finishes
            # the job.  The join-time shortcut target is resolved on the
            # coordinator (it is a pure read of the coordinator's leaf
            # set) so only wire-safe values cross the seam.
            is_newcomer = member_id == newcomer_id
            displaced_id = (
                self._displaced_member(key, kset, member_id, cert.k)
                if is_newcomer else None
            )
            delivered, reply = self.network.transport.send(
                self.node_id, member_id, member.apply_member_repair,
                fid, cert, displaced_id, is_newcomer, seen,
            )
            repaired, resolved = reply if delivered else (False, None)
            if resolved is not None:
                seen.add(resolved)
            if not repaired:
                all_ok = False
        # Confirm-reread: the member repairs above suspend at their RPCs;
        # re-test the flag after them rather than acting on the value the
        # pass started from (both edits are idempotent, so the guards are
        # behavior-neutral today and atomicity-safe under a concurrent
        # transport).
        if all_ok:
            if fid in self.network.degraded_files:
                self.network.degraded_files.discard(fid)
        elif fid not in self.network.degraded_files:
            self.network.note_degraded_file(fid)

    def apply_member_repair(
        self,
        fid: int,
        cert: FileCertificate,
        displaced_id: Optional[int],
        is_newcomer: bool,
        seen: Set[int],
    ) -> Tuple[bool, Optional[int]]:
        """The member-side body of one §3.5 repair RPC.

        Drops this node's stale entry, takes the join-time pointer
        shortcut when the coordinator offers one (it names the displaced
        holder directly), and otherwise re-acquires a real replica.
        ``seen`` is the coordinator's set of already-resolved physical
        replicas.  Returns ``(repaired, resolved_target)``: whether this
        node ends up with a usable entry, and the physical replica a
        join offer resolved to, which the coordinator adds to ``seen``
        so later repairs in the same pass avoid the same target.
        """
        self.drop_pointer_and_deref(fid)
        if is_newcomer and self.receive_join_offer(
            cert, displaced_id, forbidden_targets=seen
        ):
            pointer = self.store.pointers.get(fid)
            return True, self.node_id if pointer is None else pointer.target_id
        return self.replicate_file(cert), None

    def request_repair(self, fid: int) -> None:
        """Ask every current kset member to re-check the file's invariant.

        Each member runs :meth:`_restore_file_invariant`; only the closest
        member with a valid distinct entry will actually act, so this is
        idempotent.  Used after node recovery, when stale on-disk state may
        have created duplicate entries.
        """
        cert = self.store.certificate_for(fid)
        k = cert.k if cert is not None else self.config.k
        key = idspace.routing_key(fid)
        for member_id in self.leafset.closest_nodes(key, k):
            member = self.network.past_node_or_none(member_id)
            if member is None:
                continue
            # Confirm-reread: the previous member's repair suspends at
            # its RPCs; re-fetch before driving this member's pass so a
            # node swapped out in the meantime is not acted on.
            if member is not self.network.past_node_or_none(member_id):
                continue
            member._restore_file_invariant(fid)

    # ------------------------------------------------------------ integrity

    def read_repair(self, fid: int) -> bool:
        """Overwrite a corrupt local replica with a verified copy.

        A donor with a verified-clean copy is located among the file's
        current replica set (one direct RPC per candidate, subject to the
        fault plane).  The rewrite happens in place, so diversion
        pointers and referrer bookkeeping stay valid.  When the local
        disk refuses the rewrite (``readonly``/``failing``), the bad
        copy is shed instead and the §3.5 machinery re-replicates onto a
        writable disk — feeding replica diversion exactly like a full
        disk.  Returns True iff the local copy is verified-clean after.
        """
        replica = self.store.get_replica(fid)
        if replica is None:
            return False
        donor = self._find_verified_donor(fid, replica.certificate)
        if donor is None:
            return False  # no verified copy reachable; a later pass retries
        if self.store.get_replica(fid) is None:
            # Confirm-reread: the donor search suspends at every
            # candidate RPC, and a reclaim or migration interleaved
            # there can remove the local copy — repairing a replica we
            # no longer hold would resurrect freed storage.
            return False
        plan = self.store.fault_plan
        if plan is not None and not plan.writable(self.node_id):
            self.shed_corrupt_replica(fid)
            return False
        if self.store.repair_replica(fid):
            self.network.integrity.read_repairs += 1
            self.network.integrity.healed_file_ids.add(fid)
            return True
        return False  # the rewrite itself tore; a later scrub retries

    def _find_verified_donor(self, fid: int, cert: FileCertificate) -> Optional[int]:
        """Locate another holder with a verified-clean copy of ``fid``.

        Walks the current replica set in distance order, resolving
        diversion pointers to their targets; each candidate costs one
        direct RPC that the fault plane may lose.
        """
        key = idspace.routing_key(fid)
        for member_id in self.leafset.closest_nodes(key, cert.k + 1):
            if member_id == self.node_id:
                continue
            member = self.network.past_node_or_none(member_id)
            if member is None:
                continue
            holder, holder_id = member, member_id
            if not member.store.holds_file(fid):
                pointer = member.store.pointers.get(fid)
                if pointer is None or pointer.target_id == self.node_id:
                    continue
                target = self.network.past_node_or_none(pointer.target_id)
                if target is None or not target.store.holds_file(fid):
                    continue
                holder, holder_id = target, pointer.target_id
            delivered, verdict = self.network.transport.send(
                self.node_id, holder_id, holder.store.verify_replica, fid
            )
            if delivered and verdict == READ_OK:
                return holder_id
        return None

    def shed_corrupt_replica(self, fid: int) -> None:
        """Drop a corrupt copy this disk cannot rewrite and re-replicate.

        Referrer pointers to the shed copy are torn down first so the
        §3.5 repair sees the entries as missing rather than dangling;
        :meth:`request_repair` then lets the closest valid holder
        re-create the replica on a disk that accepts writes.
        """
        dropped = self.store.drop_replica(fid)
        if dropped is None:
            return
        for ref in sorted(dropped.referrers):
            ref_node = self.network.past_node_or_none(ref)
            if ref_node is not None:
                ref_node.store.drop_pointer(fid)
        self.network.integrity.re_replications += 1
        self.network.integrity.healed_file_ids.add(fid)
        self.request_repair(fid)

    def integrity_digest(self, fid: int) -> Optional[bytes]:
        """The content hash this node's copy of ``fid`` produces, or None.

        The compact per-fileId summary exchanged during anti-entropy
        scrubbing: holders compare digests instead of shipping replica
        bytes, so a mismatch pinpoints the corrupt copy in one round.
        """
        replica = self.store.get_replica(fid)
        if replica is None:
            return None
        return replica.observed_content_hash()

    def drop_pointer_and_deref(self, fid: int) -> None:
        """Drop a local diversion pointer and its referrer bookkeeping."""
        pointer = self.store.drop_pointer(fid)
        if pointer is None:
            return
        target = self.network.past_node_or_none(pointer.target_id)
        if target is not None:
            replica = target.store.get_replica(fid)
            if replica is not None:
                replica.drop_referrer(self.node_id)

    def receive_join_offer(
        self,
        cert: FileCertificate,
        displaced_id: Optional[int],
        forbidden_targets: Set[int] = frozenset(),
    ) -> bool:
        """Handle a file offer as a freshly joined node (§3.5).

        Given the disk/bandwidth ratio, immediately copying every file is
        inefficient; the joining node may instead install a pointer to the
        node that just ceased to be among the k closest, requiring it to
        keep the replica.  Migration happens later in the background
        (:meth:`migrate_pointers`).  Returns True if the node now has an
        entry for the file.
        """
        fid = cert.file_id
        if self.store.references_file(fid):
            return True
        if displaced_id is not None and displaced_id not in forbidden_targets:
            displaced = self.network.past_node_or_none(displaced_id)
            if displaced is not None and displaced.store.holds_file(fid):
                self.store.add_pointer(cert, displaced_id, primary=True)
                displaced.store.get_replica(fid).add_referrer(self.node_id)
                return True
        if self.store.can_accept(cert.size, self.config.t_pri):
            self.store.store_replica(cert, diverted=False)
            return True
        return False

    def maybe_discard(self, fid: int) -> bool:
        """Discard a replica this node is no longer responsible for.

        Safe only when (a) the node is outside the current k closest,
        (b) no pointer refers to the replica, and (c) every member of the
        current k closest set references the file.
        """
        replica = self.store.primaries.get(fid)
        if replica is None or replica.referrers:
            return False
        key = idspace.routing_key(fid)
        kset = self.leafset.closest_nodes(key, replica.certificate.k)
        if self.node_id in kset:
            return False
        if not all(self._member_references(m, fid) for m in kset):
            return False
        self.store.drop_replica(fid)
        return True

    def replicate_file(self, cert: FileCertificate) -> bool:
        """Acquire a real replica during failure recovery.

        Tries the local disk first (t_pri), then replica diversion within
        the leaf set (t_div), then the §3.5 long-reach fallback: ask the
        two most distant leaf-set members to locate space in *their* leaf
        sets, reaching 2l nodes in total.  Returns False if no space was
        found anywhere — the replica count temporarily drops below k.
        """
        fid = cert.file_id
        if self.store.references_file(fid):
            return True
        if self.store.can_accept(cert.size, self.config.t_pri):
            self.store.store_replica(cert, diverted=False)
            return True
        key = idspace.routing_key(fid)
        replica_set = self.leafset.closest_nodes(key, cert.k)
        if self._divert_replica(cert, replica_set) is not None:
            return True
        return self._long_reach_divert(cert, replica_set)

    def _long_reach_divert(self, cert: FileCertificate, replica_set: List[int]) -> bool:
        """§3.5 fallback: search the leaf sets of my two extreme members."""
        fid = cert.file_id
        exclude = {*replica_set, *self.leafset.sorted_members_with_owner()}
        candidates = []
        for extreme_id in self.leafset.extremes():
            if extreme_id is None:
                continue
            extreme = self.network.past_node_or_none(extreme_id)
            if extreme is None:
                continue
            _, extreme_members = self.network.transport.send(
                self.node_id, extreme_id, extreme.leafset.members, reliable=True
            )
            for member_id in extreme_members:
                if member_id in exclude:
                    continue
                member = self.network.past_node_or_none(member_id)
                if member is None or member.store.holds_file(fid):
                    continue
                candidates.append(member)
        if not candidates:
            return False
        best = max(candidates, key=lambda n: (n.store.free, -n.node_id))
        if not best.accept_diverted_replica(cert, referrer_id=self.node_id):
            return False
        self.store.add_pointer(cert, best.node_id, primary=True)
        key = idspace.routing_key(fid)
        self._install_backup_pointer(cert, best.node_id, key, exclude=set(replica_set))
        return True

    # -------------------------------------------- diverted-replica liveness

    def on_diverted_target_failed(self, fid: int) -> None:
        """The host of a replica I point to failed; re-create it (§3.3)."""
        pointer = self.store.pointers.get(fid)
        if pointer is None:
            return
        cert = pointer.certificate
        was_primary = pointer.primary
        self.store.drop_pointer(fid)
        if not was_primary:
            return  # node A will re-create and refresh the backup pointer
        key = idspace.routing_key(fid)
        replica_set = self.leafset.closest_nodes(key, cert.k)
        if self.node_id not in replica_set:
            # The ring has shifted this node out of the file's replica set;
            # its entry is no longer load-bearing, so just drop the pointer
            # (the current k closest handle re-replication themselves).
            return
        if self.store.can_accept(cert.size, self.config.t_pri):
            self.store.store_replica(cert, diverted=False)
            return
        if self._divert_replica(cert, replica_set) is not None:
            return
        if not self._long_reach_divert(cert, replica_set):
            self.network.note_degraded_file(fid)

    def on_referrer_failed(self, fid: int, failed_id: int, failed_was_primary: bool) -> None:
        """A referrer (node A or C) of a replica I host failed.

        If A failed, its backup C — which by the failure has moved into
        the k closest — promotes its pointer to primary and installs a
        fresh backup on the new k+1-th node.  If C failed, A installs a
        replacement backup pointer.
        """
        replica = self.store.get_replica(fid)
        if replica is None:
            return
        replica.drop_referrer(failed_id)
        survivors = [
            self.network.past_node_or_none(r) for r in sorted(replica.referrers)
        ]
        survivors = [s for s in survivors if s is not None]
        if failed_was_primary:
            for s in survivors:
                pointer = s.store.pointers.get(fid)
                if pointer is not None and not pointer.primary:
                    s.store.set_pointer_primary(fid, True)
                    key = idspace.routing_key(fid)
                    s._install_backup_pointer(
                        pointer.certificate,
                        self.node_id,
                        key,
                        exclude=set(
                            s.leafset.closest_nodes(key, pointer.certificate.k)
                        ),
                    )
                    return
            # No surviving referrer: the k-closest maintenance flow will
            # re-create a replica; this copy is now orphaned and may be
            # reclaimed by migration.
        else:
            for s in survivors:
                pointer = s.store.pointers.get(fid)
                if pointer is not None and pointer.primary:
                    key = idspace.routing_key(fid)
                    s._install_backup_pointer(
                        pointer.certificate,
                        self.node_id,
                        key,
                        exclude=set(
                            s.leafset.closest_nodes(key, pointer.certificate.k)
                        ),
                    )
                    return

    # ------------------------------------------------------------ migration

    def migrate_pointers(self, limit: Optional[int] = None) -> int:
        """Background migration (§3.5): pull pointed-to replicas onto this
        node when space has become available, and collapse pointers whose
        target drifted outside the leaf set.  Returns replicas migrated."""
        migrated = 0
        for fid in list(self.store.pointers):
            if limit is not None and migrated >= limit:
                break
            pointer = self.store.pointers.get(fid)
            if pointer is None or not pointer.primary:
                continue
            cert = pointer.certificate
            if not self.store.can_accept(cert.size, self.config.t_pri):
                continue
            target = self.network.past_node_or_none(pointer.target_id)
            if target is None or not target.store.holds_file(fid):
                continue  # dangling; the maintenance flow repairs these
            key = idspace.routing_key(fid)
            kset = set(self.leafset.closest_nodes(key, cert.k))
            if pointer.target_id in kset:
                # The target's copy is itself a kset entry; taking it away
                # would break the invariant for the target.
                continue
            replica = target.store.get_replica(fid)
            if any(r != self.node_id and r in kset for r in replica.referrers):
                # Another kset member's entry resolves through this copy.
                continue
            self.store.drop_pointer(fid)
            self.store.store_replica(cert, diverted=False)
            _, dropped_referrers = self.network.transport.send(
                self.node_id, pointer.target_id,
                target.store.drop_replica_referrers, fid, reliable=True,
            )
            if dropped_referrers is not None:
                for ref in dropped_referrers:
                    if ref == self.node_id:
                        continue
                    ref_node = self.network.past_node_or_none(ref)
                    if ref_node is None:
                        continue
                    # Confirm-reread: the drop-referrers RPC above
                    # suspended; an interleaved repair may already have
                    # retired this referrer's backup pointer.
                    if fid not in ref_node.store.pointers:
                        continue
                    ref_node.store.drop_pointer(fid)
            migrated += 1
        return migrated
