"""The PAST network: client operations and system-wide orchestration.

`PastNetwork` composes the Pastry overlay, the emulated topology and the
per-node storage layers, and exports the three client operations of §2:

* ``fileId = Insert(name, owner-credentials, k, file)``
* ``file   = Lookup(fileId)``
* ``Reclaim(fileId, owner-credentials)``

It also performs node admission control (§3.2), drives file diversion by
re-salting failed inserts (§3.4), orchestrates failure/recovery events,
and maintains the O(1) global utilization counters the experiments sample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..netsim.faults import READ_CORRUPT, StorageFaultPlan
from ..netsim.topology import Topology
from ..pastry import PastryNetwork, idspace
from ..pastry.network import RouteResult
from ..security import (
    FileCertificate,
    NodeIdentity,
    ReclaimReceipt,
    Smartcard,
    SmartcardIssuer,
    StoreReceipt,
)
from ..security.certificates import CertificateError
from ..security.smartcard import QuotaExceededError
from .config import PastConfig
from .errors import AdmissionError
from .integrity import IntegrityStats
from .messages import InsertRequest, LookupRequest, ReclaimRequest
from .resilience import RetryPolicy
from .seeding import derive_seed
from .node import PastNode
from .stats import InsertEvent, LookupEvent, PastStats
from .storage import LocalStore
from .transport import SimTransport


@dataclass
class InsertResult:
    """Client-visible outcome of an Insert operation."""

    success: bool
    name: str
    file_id: Optional[int] = None
    size: int = 0
    attempts: int = 1
    receipts: List[StoreReceipt] = field(default_factory=list)
    replica_diversions: int = 0
    failure_reason: Optional[str] = None
    hops: int = 0

    @property
    def file_diversions(self) -> int:
        """Number of re-salts performed (0 = first fileId was placed)."""
        return self.attempts - 1


@dataclass
class LookupResult:
    """Client-visible outcome of a Lookup operation."""

    success: bool
    file_id: int
    source: Optional[str] = None
    responder_id: Optional[int] = None
    certificate: Optional[FileCertificate] = None
    hops: int = 0
    #: File bytes, when the insert materialized them (None otherwise).
    content: Optional[bytes] = None
    #: Proximity-metric length of the route taken.
    distance: float = 0.0
    #: Route attempts issued (always 1 without a RetryPolicy).
    attempts: int = 1
    #: Virtual time the client spent, timeouts and backoffs included
    #: (only accounted when a RetryPolicy is in effect).
    elapsed: float = 0.0
    #: The answer came from a hedged direct fetch, not the routed request.
    hedged: bool = False
    #: Local copies that failed their verified read (corrupt or disk
    #: error) before a clean replica was served.
    integrity_failovers: int = 0


@dataclass
class ReclaimResult:
    """Client-visible outcome of a Reclaim operation."""

    success: bool
    file_id: int
    receipts: List[ReclaimReceipt] = field(default_factory=list)
    failure_reason: Optional[str] = None


class PastNetwork:
    """A complete PAST deployment inside the network emulator."""

    def __init__(
        self,
        config: Optional[PastConfig] = None,
        topology: Optional[Topology] = None,
        issuer: Optional[SmartcardIssuer] = None,
    ):
        self.config = config if config is not None else PastConfig()
        self.pastry = PastryNetwork(
            b=self.config.b,
            l=self.config.l,
            topology=topology,
            seed=self.config.seed,
            randomize_routing=self.config.randomize_routing,
        )
        #: The transport seam (messaging half): every routed message and
        #: direct RPC the storage layer issues goes through this object,
        #: so an AsyncioTransport can replace the emulated plane wholesale.
        self.transport = SimTransport(None, self.pastry)
        self.rng = random.Random(derive_seed(self.config.seed, "past-network"))
        #: Dedicated stream for client retry jitter: keeps RetryPolicy
        #: draws off ``self.rng`` so enabling retries cannot shift the
        #: salts/placements of unrelated operations.
        self.retry_rng = random.Random(derive_seed(self.config.seed, "client-retry"))
        self.issuer = issuer if issuer is not None else SmartcardIssuer()
        self.stats = PastStats()
        self._past: Dict[int, PastNode] = {}
        self._failed_past: Dict[int, PastNode] = {}
        #: Signed nodeId-to-address bindings (§2.3): every admitted node
        #: publishes one, and Pastry refuses to learn ids whose binding
        #: does not verify — forged routing entries are impossible.
        self.identities: Dict[int, NodeIdentity] = {}
        self._verified_ids: set = set()
        self.pastry.identity_verifier = self._identity_verifies
        self._registry: Dict[int, FileCertificate] = {}
        self._contents: Dict[int, bytes] = {}
        self._reclaimed: set = set()
        self.degraded_files: set = set()
        #: Storage-integrity plane: counters plus the (optional) disk
        #: fault plan and the virtual clock its bit rot accrues against.
        self.integrity = IntegrityStats()
        self.storage_faults: Optional[StorageFaultPlan] = None
        self._storage_clock: Callable[[], float] = lambda: 0.0
        #: Durable-store seam: when set, every admitted node's store gets
        #: ``factory(node_id, fault_plan) -> backend`` attached (see
        #: :mod:`repro.store`).  None — the default — leaves stores
        #: purely in-memory, byte-identical to the pre-seam behavior.
        self.store_backend_factory: Optional[Callable] = None
        self.total_capacity = 0
        self.bytes_stored = 0
        self.clock = 0
        #: When False, membership changes do not trigger replica
        #: maintenance — used to model *simultaneous* failures (the paper's
        #: availability model counts a file lost when all k replicas fail
        #: within one recovery period, i.e. before maintenance runs).
        self.maintenance_enabled = True

    # ------------------------------------------------------------- topology

    def __len__(self) -> int:
        return len(self._past)

    def past_node(self, node_id: int) -> PastNode:
        return self._past[node_id]

    def past_node_or_none(self, node_id: int) -> Optional[PastNode]:
        return self._past.get(node_id)

    def nodes(self) -> List[PastNode]:
        return [self._past[i] for i in self.pastry.node_ids]

    def utilization(self) -> float:
        """Global storage utilization: replica bytes over total capacity."""
        return self.bytes_stored / self.total_capacity if self.total_capacity else 0.0

    def _account(self, delta: int) -> None:
        self.bytes_stored += delta

    # ------------------------------------------------------------ node adds

    def add_node(
        self,
        capacity: int,
        node_id: Optional[int] = None,
        cluster=None,
        allow_split: bool = True,
    ) -> List[PastNode]:
        """Admit one storage node (§3.2).

        The advertised capacity is compared against the average capacity
        of the nodes around the would-be nodeId.  A node more than
        ``admission_ratio`` times larger is asked to split and join under
        multiple nodeIds (done here automatically when ``allow_split``); a
        node smaller than ``1/admission_ratio`` of the average is rejected.
        """
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        avg = self._neighborhood_average_capacity(node_id)
        if avg is not None and avg > 0:
            ratio = self.config.admission_ratio
            if capacity * ratio < avg:
                raise AdmissionError(
                    f"node capacity {capacity} below 1/{ratio:g} of leaf-set average {avg:.0f}"
                )
            if capacity > avg * ratio:
                if not allow_split:
                    raise AdmissionError(
                        f"node capacity {capacity} exceeds {ratio:g}x leaf-set "
                        "average; must split and join under multiple nodeIds"
                    )
                parts = int(capacity // (avg * ratio)) + 1
                out: List[PastNode] = []
                share = capacity // parts
                for i in range(parts):
                    cap_i = share if i < parts - 1 else capacity - share * (parts - 1)
                    out.extend(self.add_node(cap_i, cluster=cluster, allow_split=False))
                return out
        return [self._admit(capacity, node_id, cluster)]

    def _neighborhood_average_capacity(self, node_id: Optional[int]) -> Optional[float]:
        if not self._past:
            return None
        probe = node_id if node_id is not None else self.rng.getrandbits(idspace.ID_BITS)
        around = self.pastry.k_closest_live(probe, self.config.l)
        caps = [self._past[i].store.capacity for i in around if i in self._past]
        return sum(caps) / len(caps) if caps else None

    def _identity_verifies(self, node_id: int) -> bool:
        """Pastry's hook: accept routing state only for verified bindings."""
        if node_id in self._verified_ids:
            return True
        identity = self.identities.get(node_id)
        if identity is None or identity.node_id != node_id:
            return False
        try:
            identity.verify()
        except CertificateError:
            return False
        self._verified_ids.add(node_id)
        return True

    def _admit(self, capacity: int, node_id: Optional[int], cluster) -> PastNode:
        store = LocalStore(
            capacity,
            cache_policy=self.config.cache_policy,
            cache_fraction=self.config.cache_fraction,
            accounting=self._account,
        )
        pastry_node = self.pastry._make_node(node_id, cluster=cluster, register=False)
        card = self.issuer.issue_card(f"node-{pastry_node.node_id:032x}")
        self.identities[pastry_node.node_id] = NodeIdentity.issue(
            card, pastry_node.node_id, f"{pastry_node.node_id:032x}.past.example:4160"
        )
        store.node_id = pastry_node.node_id
        if self.storage_faults is not None:
            store.fault_plan = self.storage_faults
            store.now = self._storage_clock
        if self.store_backend_factory is not None:
            store.backend = self.store_backend_factory(
                pastry_node.node_id, self.storage_faults
            )
        node = PastNode(pastry_node, store, card, self.config, self)
        # Register the storage layer before the overlay announces the node,
        # so join-time maintenance hooks can reach it.
        self._past[pastry_node.node_id] = node
        self.total_capacity += capacity
        if len(self.pastry) == 0:
            self.pastry._register(pastry_node)
        else:
            self._join_existing(pastry_node)
        return node

    def _join_existing(self, pastry_node) -> None:
        """Run the Pastry join protocol for a pre-built node object."""
        net = self.pastry
        seed = net._nearest_by_proximity(pastry_node.coord)
        result = net.route(seed.node_id, pastry_node.node_id, message=None)
        path_nodes = [net.node(i) for i in result.path]
        terminus = path_nodes[-1]
        pastry_node.leafset.add(terminus.node_id)
        pastry_node.leafset.add_all(terminus.leafset.sorted_members())
        pastry_node.consider_neighbor(seed.node_id)
        for n_id in seed.neighborhood:
            pastry_node.consider_neighbor(n_id)
        for hop in path_nodes:
            pastry_node.routing_table.consider(hop.node_id)
            depth = idspace.shared_prefix_length(hop.node_id, pastry_node.node_id, net.b)
            for row in range(min(depth + 1, pastry_node.routing_table.rows)):
                pastry_node.routing_table.install_row(row, hop.routing_table.row(row))
        for member in pastry_node.leafset.sorted_members():
            pastry_node.routing_table.consider(member)
        net._register(pastry_node)
        contacts = set(pastry_node.leafset.sorted_members())
        contacts.update(pastry_node.routing_table.entries())
        contacts.update(pastry_node.neighborhood)
        contacts.update(p.node_id for p in path_nodes)
        # Sorted: learn() can cascade into repairs and RPCs, so the
        # announcement order must not depend on set iteration order.
        for contact_id in sorted(contacts):
            contact = net.get_live(contact_id)
            if contact is not None:
                contact.learn(pastry_node.node_id)
                net.stats.record_rpc()

    def build(self, capacities: List[int], clusters: Optional[List] = None) -> List[PastNode]:
        """Admit a batch of nodes with the given advertised capacities."""
        out: List[PastNode] = []
        for i, capacity in enumerate(capacities):
            cluster = clusters[i % len(clusters)] if clusters else None
            out.extend(self.add_node(capacity, cluster=cluster))
        return out

    # ----------------------------------------------------------- clients

    def create_client(self, label: str, quota: Optional[int] = None) -> Smartcard:
        """Issue a user smartcard (holds keys and the storage quota)."""
        return self.issuer.issue_card(label, quota=quota)

    # ------------------------------------------------------------- registry

    def is_file_registered(self, file_id: int) -> bool:
        return file_id in self._registry

    def certificate_of(self, file_id: int) -> Optional[FileCertificate]:
        return self._registry.get(file_id)

    def owner_of(self, file_id: int) -> Optional[bytes]:
        cert = self._registry.get(file_id)
        return cert.owner_public if cert is not None else None

    def live_file_ids(self) -> List[int]:
        """All inserted, not-yet-reclaimed fileIds (test oracle)."""
        return list(self._registry)

    def note_degraded_file(self, file_id: int) -> None:
        """Record that a file temporarily has fewer than k replicas (§3.5)."""
        self.degraded_files.add(file_id)

    # ------------------------------------------------------------- insert

    def insert(
        self,
        name: str,
        owner: Smartcard,
        size: Optional[int] = None,
        client_id: int = 0,
        k: Optional[int] = None,
        content: Optional[bytes] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> InsertResult:
        """Insert a file, re-salting its fileId on failure (file diversion).

        A client retries with a fresh salt up to three times; after four
        failed attempts the insert is aborted and reported to the
        application (§3.4).

        ``size`` alone runs the content-free simulation used by the
        trace-driven experiments; passing ``content`` materializes the
        bytes (the certificate then carries the real SHA-1 and lookups
        return the data).

        A ``policy`` separates transport loss from storage failure: a
        route the fault plane lost is re-issued (same salt, randomized
        routing per §2.3) before the client concludes the fileId's
        neighborhood is full and re-salts.  Without one, a lost insert
        burns a diversion attempt — the §3.4 path predates lossy links.
        """
        if content is not None:
            if size is not None and size != len(content):
                raise ValueError("size disagrees with len(content)")
            size = len(content)
        if size is None:
            raise ValueError("give size or content")
        k = k if k is not None else self.config.k
        self.clock += 1
        total_hops = 0
        request: Optional[InsertRequest] = None
        for attempt in range(1, self.config.max_insert_attempts + 1):
            salt = self.rng.getrandbits(64)
            fid = idspace.file_id(name, owner.public_key, salt)
            cert = owner.issue_file_certificate(
                fid, size, k, salt, self.clock, content=content
            )
            try:
                owner.debit(size, k)
            except QuotaExceededError as exc:
                result = InsertResult(
                    False, name, size=size, attempts=attempt, failure_reason=str(exc)
                )
                self._record_insert(result)
                return result
            route = self.transport.route(
                client_id, idspace.routing_key(fid),
                message=InsertRequest(cert, client_id, content=content),
            )
            total_hops += route.hops
            if policy is not None and (route.lost or route.dropped):
                route, retry_hops = self._reroute_insert(
                    cert, client_id, content, policy
                )
                total_hops += retry_hops
            request = route.message
            coordinator_id = request.coordinator_id or route.terminus
            coordinator = self._past.get(coordinator_id)
            ok = coordinator is not None and coordinator.coordinate_insert(request)
            if ok:
                for receipt in request.receipts:
                    receipt.verify()
                if len(request.receipts) < k:
                    raise RuntimeError("insert accepted with fewer than k receipts")
                self._registry[fid] = cert
                if content is not None:
                    self._contents[fid] = content
                self._cache_along_path(route.path, cert)
                result = InsertResult(
                    True,
                    name,
                    file_id=fid,
                    size=size,
                    attempts=attempt,
                    receipts=list(request.receipts),
                    replica_diversions=request.replica_diversions,
                    hops=total_hops,
                )
                self._record_insert(result)
                return result
            owner.credit(size, k)
        result = InsertResult(
            False,
            name,
            size=size,
            attempts=self.config.max_insert_attempts,
            failure_reason=(request.failure_reason if request else None) or "no storage",
            hops=total_hops,
        )
        self._record_insert(result)
        return result

    def _reroute_insert(self, cert, client_id, content, policy: RetryPolicy):
        """Re-issue a lost insert route under the client's retry policy.

        Retries keep the same salt — the transport lost the message, the
        fileId's neighborhood never refused it — and run with randomized
        routing so each retry is likely to avoid the previous path (§2.3).
        Returns the last route (its ``message`` is the request as the
        coordinator-to-be left it) plus the hops spent.
        """
        hops = 0
        route = None
        saved = self.pastry.randomize_routing
        if policy.randomize_retries:
            self.pastry.randomize_routing = True
        try:
            for retry in range(1, policy.max_attempts):
                route = self.transport.route(
                    client_id, idspace.routing_key(cert.file_id),
                    message=InsertRequest(cert, client_id, content=content),
                )
                hops += route.hops
                if not (route.lost or route.dropped):
                    break
        finally:
            if self.pastry.randomize_routing != saved:
                self.pastry.randomize_routing = saved
        if route is None:  # max_attempts == 1: no retry budget
            request = InsertRequest(cert, client_id, content=content)
            request.failure_reason = "request lost in transit"
            route = RouteResult(lost=True, message=request)
        return route, hops

    def _record_insert(self, result: InsertResult) -> None:
        self.stats.record_insert(
            InsertEvent(
                size=result.size,
                success=result.success,
                utilization=self.utilization(),
                file_diversions=result.file_diversions if result.success else 0,
                replica_diversions=result.replica_diversions,
                replicas_stored=len(result.receipts),
            )
        )

    def _cache_along_path(self, path: List[int], cert: FileCertificate, skip=()) -> None:
        """Cache a file at the nodes a request was routed through (§4)."""
        for node_id in path:
            if node_id in skip:
                continue
            node = self._past.get(node_id)
            if node is not None:
                node.cache_routed_file(cert)

    # -------------------------------------------------------------- lookup

    def lookup(
        self,
        file_id: int,
        client_id: int,
        retries: int = 0,
        policy: Optional[RetryPolicy] = None,
    ) -> LookupResult:
        """Retrieve a file; served by the first node en route that has it.

        ``retries`` re-issues the request when a malicious node along the
        path swallowed it; with randomized routing enabled, each retry is
        likely to take a different route around the bad node (§2.3).

        A ``policy`` supersedes ``retries`` with the full client
        resilience loop: per-attempt timeouts on the virtual clock,
        jittered exponential backoff, randomized-routing retries, and a
        hedged fallback that queries the k replica holders directly when
        a delivered request found no replica along its route.
        """
        if policy is not None:
            return self._lookup_with_policy(file_id, client_id, policy)
        self.clock += 1
        for _attempt in range(retries + 1):
            route = self.transport.route(
                client_id, idspace.routing_key(file_id),
                message=LookupRequest(file_id, client_id), collect_distance=True,
            )
            if not route.dropped:
                break
        request = route.message
        success = request.source is not None and not route.dropped
        hops = route.hops + request.extra_hops
        if success:
            self._cache_along_path(route.path, request.certificate, skip={request.responder_id})
        self.stats.record_lookup(
            LookupEvent(
                file_id=file_id,
                hops=hops,
                success=success,
                source=request.source,
                utilization=self.utilization(),
                responder_id=request.responder_id,
                distance=route.distance,
            )
        )
        return LookupResult(
            success=success,
            file_id=file_id,
            source=request.source,
            responder_id=request.responder_id,
            certificate=request.certificate,
            hops=hops,
            content=self._contents.get(file_id) if success else None,
            distance=route.distance,
            integrity_failovers=request.integrity_failures,
        )

    def _lookup_with_policy(
        self, file_id: int, client_id: int, policy: RetryPolicy
    ) -> LookupResult:
        """The resilient client loop behind ``lookup(..., policy=...)``."""
        self.clock += 1
        key = idspace.routing_key(file_id)
        elapsed = 0.0
        attempts = 0
        total_hops = 0
        total_distance = 0.0
        request = LookupRequest(file_id, client_id)
        hedged = False
        route = None
        saved_randomize = self.pastry.randomize_routing
        # Under a realtime transport the virtual `elapsed` model still
        # runs (it prices lost messages the paper's way), but the op
        # deadline additionally binds *wall* time — a live cluster's
        # delays and reconnect backoffs are real seconds the virtual
        # model cannot see.  SimTransport has no `realtime` attribute,
        # so the simulator's path (and its digests) are untouched.
        wall_start = (
            self.transport.now()
            if getattr(self.transport, "realtime", False) else None
        )
        try:
            for attempt in range(1, policy.max_attempts + 1):
                if attempt > 1:
                    elapsed += policy.backoff(attempt - 1, self.retry_rng)
                    if policy.randomize_retries:
                        self.pastry.randomize_routing = True
                if elapsed > policy.op_deadline:
                    break
                if (wall_start is not None
                        and self.transport.now() - wall_start > policy.op_deadline):
                    break
                attempts = attempt
                route = self.transport.route(
                    client_id, key, message=LookupRequest(file_id, client_id),
                    collect_distance=True,
                )
                request = route.message
                total_hops += route.hops
                total_distance += route.distance
                elapsed += route.latency
                if route.lost or route.dropped:
                    # No reply ever comes; the client times out (§2.3:
                    # "the client must retry").
                    elapsed += policy.attempt_timeout
                    continue
                if request.source is not None:
                    break
                # Delivered, but no node along the route had a replica —
                # the holders may be crashed, partitioned, or mid-repair.
                # Hedge: ask each of the k replica holders directly.
                if policy.hedge and route.terminus is not None:
                    request = self._hedged_fetch(request, route.terminus, key)
                    hedged = request.source is not None
                    if hedged:
                        break
                elapsed += policy.attempt_timeout
        finally:
            if self.pastry.randomize_routing != saved_randomize:
                self.pastry.randomize_routing = saved_randomize
        success = request.source is not None
        total_hops += request.extra_hops
        if success and not hedged and route is not None:
            self._cache_along_path(
                route.path, request.certificate, skip={request.responder_id}
            )
        self.stats.record_lookup(
            LookupEvent(
                file_id=file_id,
                hops=total_hops,
                success=success,
                source=request.source,
                utilization=self.utilization(),
                responder_id=request.responder_id,
                distance=total_distance,
            )
        )
        return LookupResult(
            success=success,
            file_id=file_id,
            source=request.source,
            responder_id=request.responder_id,
            certificate=request.certificate,
            hops=total_hops,
            content=self._contents.get(file_id) if success else None,
            distance=total_distance,
            attempts=max(attempts, 1),
            elapsed=elapsed,
            hedged=hedged,
            integrity_failovers=request.integrity_failures,
        )

    def _hedged_fetch(
        self, request: LookupRequest, terminus_id: int, key: int
    ) -> LookupRequest:
        """Ask each replica holder directly until one serves the file.

        The terminus (numerically closest live node) knows the replica
        set from its leaf set; the client then issues one direct RPC per
        holder, each individually subject to the fault plane, stopping at
        the first that answers.  This is the "fall back across the k
        replica holders" hedge: it converts "the routed request happened
        to traverse no live holder" into at most k extra RPCs.  Returns
        the request as the last holder reached left it — served
        (``source`` set) or not, failed verified reads counted either way.
        """
        terminus = self._past.get(terminus_id)
        if terminus is None:
            return request
        for holder_id in terminus.replica_set_for(key):
            holder = self._past.get(holder_id)
            if holder is None:
                continue
            request.extra_hops += 1
            delivered, reply = self.transport.send(
                request.client_id, holder_id, holder.fetch, request
            )
            if delivered:
                request = reply
                if request.source is not None:
                    break
        return request

    # ------------------------------------------------------------- reclaim

    def reclaim(self, file_id: int, owner: Smartcard, client_id: int) -> ReclaimResult:
        """Reclaim the storage of the k replicas of a file (§2.2).

        Weaker than delete: routed to the replica set, each holder frees
        the storage and issues a receipt; cached copies elsewhere may
        linger until evicted, so the file may remain fetchable for a time.
        """
        self.clock += 1
        cert = owner.issue_reclaim_certificate(file_id)
        route = self.transport.route(
            client_id, idspace.routing_key(file_id),
            message=ReclaimRequest(cert, client_id),
        )
        request = route.message
        coordinator_id = request.coordinator_id or route.terminus
        coordinator = self._past.get(coordinator_id)
        ok = coordinator is not None and coordinator.coordinate_reclaim(request)
        if ok:
            owner.redeem_reclaim_receipts(request.receipts, self.config.k)
            self._registry.pop(file_id, None)
            self._contents.pop(file_id, None)
            self._reclaimed.add(file_id)
            self.degraded_files.discard(file_id)
        self.stats.reclaim_count += 1
        return ReclaimResult(
            success=ok,
            file_id=file_id,
            receipts=list(request.receipts),
            failure_reason=request.failure_reason,
        )

    # ------------------------------------------------------ churn handling

    def fail_node(self, node_id: int) -> None:
        """Fail a node: leaf-set repair, replica re-creation, pointer fixes."""
        self.crash_node(node_id)
        self.process_failure_detection(node_id)

    def crash_node(self, node_id: int) -> None:
        """Phase 1: the node goes silent (no detection yet).

        Used by the recovery-period experiments: between the crash and
        :meth:`process_failure_detection`, keep-alives have not expired,
        so no re-replication runs — the window during which a second
        failure can cost a file another replica.
        """
        node = self._past.pop(node_id)
        self._failed_past[node_id] = node
        self.total_capacity -= node.store.capacity
        self.bytes_stored -= node.store.used
        self.pastry.mark_failed(node_id)

    def wipe_failed_disk(self, node_id: int) -> None:
        """Destroy a crashed node's disk contents (crash = media loss).

        The global byte counters were already adjusted at crash time, so
        the store is emptied directly.  A later :meth:`recover_node`
        brings the node back empty, like "a recovering node whose disk
        contents were lost as part of the failure" (§3.5).
        """
        node = self._failed_past[node_id]
        node.store.wipe_disk()
        if self.storage_faults is not None:
            # The media is gone; so are its corruption records.
            self.storage_faults.forget_node(node_id)

    def process_failure_detection(self, node_id: int) -> None:
        """Phase 2: keep-alive expiry — leaf-set repair and maintenance."""
        node = self._failed_past.get(node_id)
        if node is None:
            return  # recovered before the keep-alive expired
        self.pastry.notify_failure(node_id)
        if not self.maintenance_enabled:
            return
        # Keep-alive expiry between pointed-to replicas and their referrers.
        # Diverted replicas are referenced by nodes A and C; primary
        # replicas can be referenced too, via §3.5 join-time pointers.
        referenced = list(node.store.diverted_in.items()) + list(
            node.store.primaries.items()
        )
        for fid, replica in referenced:
            for ref in sorted(replica.referrers):
                ref_node = self._past.get(ref)
                if ref_node is None:
                    continue
                # Confirm-reread: the previous referrer's failover
                # suspends at its re-replication RPCs; deliver only to
                # referrers that still hold their pointer.
                if fid not in ref_node.store.pointers:
                    continue
                ref_node.on_diverted_target_failed(fid)
        for fid, pointer in list(node.store.pointers.items()):
            target = self._past.get(pointer.target_id)
            if target is None:
                continue
            # Confirm-reread: earlier deliveries suspend at their
            # pointer-rebind RPCs; the target may have been detected
            # failed (or shed the replica) while one was in flight.
            if pointer.target_id not in self._past or not target.store.holds_file(fid):
                continue
            target.on_referrer_failed(fid, node_id, pointer.primary)

    def fail_simultaneously(self, node_ids) -> None:
        """Fail a set of nodes within one recovery period.

        Replica maintenance is suppressed for the duration, so files whose
        entire replica set is in ``node_ids`` are lost — the paper's
        availability model for choosing k.  Call :meth:`repair_all`
        afterwards to let the survivors restore the invariant for every
        file that still has a live replica.
        """
        self.maintenance_enabled = False
        try:
            for node_id in list(node_ids):
                self.fail_node(node_id)
        finally:
            self.maintenance_enabled = True

    def repair_all(self) -> None:
        """Run a full maintenance pass over every node's entries."""
        for node in self.nodes():
            for fid in list(node.store.file_ids()):
                node._restore_file_invariant(fid)

    def recover_node(self, node_id: int) -> PastNode:
        """Recover a previously failed node, disk contents intact."""
        node = self._failed_past.pop(node_id)
        self._past[node_id] = node
        self.total_capacity += node.store.capacity
        self.bytes_stored += node.store.used
        self.pastry.recover_node(node_id)
        self._reconcile_recovered(node)
        return node

    def _reconcile_recovered(self, node: PastNode) -> None:
        """Drop state invalidated while the node was down."""
        for fid in list(node.store.file_ids()):
            # Confirm-reread: the repair paths below suspend at their
            # RPCs, and an interleaved repair can retire this entry
            # while a previous iteration's call is in flight.
            if fid not in node.store.file_ids():
                continue
            if fid in self._reclaimed or fid not in self._registry:
                node.store.drop_pointer(fid)
                node.store.drop_replica(fid)
                continue
            pointer = node.store.pointers.get(fid)
            if pointer is not None:
                target = self._past.get(pointer.target_id)
                if target is None or not target.store.holds_file(fid):
                    node.on_diverted_target_failed(fid)
                else:
                    # Re-establish the keep-alive pair dropped at failure
                    # (idempotent: a referrer that is already back stays).
                    target.store.get_replica(fid).add_referrer(node.node_id)
        for fid in list(node.store.primaries):
            if fid not in node.store.primaries:
                # Confirm-reread: maybe_discard() suspends at its
                # pointer-rebind RPCs; the primary may already be gone.
                continue
            node.maybe_discard(fid)
        # Stale on-disk entries may now duplicate entries created while the
        # node was down; have each file's replica set re-check itself.
        for fid in list(node.store.file_ids()):
            # Confirm-reread: request_repair() suspends once per member;
            # skip entries an interleaved repair already retired.
            if fid not in node.store.file_ids():
                continue
            node.request_repair(fid)

    def run_migration(self, rounds: int = 1) -> int:
        """Run the §3.5 background migration on every node."""
        migrated = 0
        for _ in range(rounds):
            moved = 0
            for node in self.nodes():
                moved += node.migrate_pointers()
            migrated += moved
            if moved == 0:
                break
        return migrated

    # ---------------------------------------------------- storage integrity

    def install_storage_faults(
        self,
        plan: StorageFaultPlan,
        clock: Optional[Callable[[], float]] = None,
    ) -> StorageFaultPlan:
        """Install a disk fault plan on every store, current and future.

        ``clock`` is the virtual-time callable bit rot accrues against
        (e.g. ``lambda: sim.now``).  Without one the clock stays frozen
        at 0.0 — partial writes, read errors and disk modes still fire,
        but time-driven rot does not.
        """
        self.storage_faults = plan
        if clock is not None:
            self._storage_clock = clock
        plan.bind_clock(self._storage_clock)
        for node in list(self._past.values()) + list(self._failed_past.values()):
            node.store.fault_plan = plan
            node.store.now = self._storage_clock
        return plan

    def remove_storage_faults(self) -> None:
        """Detach the disk fault plan from every store.

        Corruption already materialized into replicas' ``corrupted``
        flags persists — removing the plan stops *new* faults, it does
        not heal old ones.  Used by harnesses to make the post-heal
        phase fault-free before auditing.
        """
        self.storage_faults = None
        for node in list(self._past.values()) + list(self._failed_past.values()):
            node.store.fault_plan = None

    def verify_all_replicas(self) -> List[Tuple[int, int]]:
        """One verified read of every replica on every live node.

        Materializes lazily-evaluated bit rot into the replicas'
        ``corrupted`` flags so a subsequent (read-only, draw-free)
        :func:`~repro.core.invariants.audit` sees the damage.  Returns
        the sorted ``(node_id, file_id)`` pairs that verified corrupt.
        """
        corrupt: List[Tuple[int, int]] = []
        for node in self.nodes():
            for fid in node.store.file_ids():
                if (node.store.holds_file(fid)
                        and node.store.verify_replica(fid) == READ_CORRUPT):
                    corrupt.append((node.node_id, fid))
        return sorted(corrupt)
