"""Per-node storage: replicas, diversion pointers and the acceptance policy.

Every PAST node contributes an advertised storage capacity.  The store
tracks three kinds of entries:

* **primary replicas** — the node is one of the k numerically closest to
  the fileId and holds the file itself;
* **diverted replicas** — the node holds the file on behalf of a leaf-set
  neighbor that could not accommodate it (§3.3);
* **diversion pointers** — file-table entries referencing a diverted
  replica stored elsewhere.  Node *A* (the primary that diverted) and node
  *C* (the k+1-th closest) both hold one, so a single node failure never
  makes the diverted replica unreachable.

Replica bytes are charged against capacity; pointers are metadata and are
not charged.  Cached files live in whatever space is left and are evicted
on demand (see :mod:`repro.core.cache`).

The acceptance policy is the paper's ``SD/FN`` rule: node ``N`` rejects
file ``D`` iff ``size(D)/free(N) > t``, with ``t = t_pri`` for primary
replicas and the stricter ``t = t_div`` for diverted ones.  The rule
accepts all but oversized files while utilization is low, discriminates
against large files as free space shrinks, and keeps head-room for
primaries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Callable, Dict, Iterable, List, Optional

from ..netsim.faults import READ_CORRUPT, READ_OK
from ..security import FileCertificate
from ..security.certificates import corrupted_content_hash
from .cache import CacheManager, make_policy
from .errors import CapacityError

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.faults import StorageFaultPlan

#: Extra :meth:`LocalStore.verify_replica` verdict beyond the plan's
#: READ_OK/READ_CORRUPT: the replica is not on this disk.
REPLICA_MISSING = "missing"

#: The referrers of a replica nothing points to: nearly every replica, so
#: one immutable value shared by all of them instead of a set apiece.
_NO_REFERRERS: AbstractSet[int] = frozenset()


class StoredReplica:
    """A replica held on this node's disk.

    A plain ``__slots__`` class rather than a dataclass: one instance
    exists per (file, holder) pair across the whole deployment, so at
    experiment scale the per-instance ``__dict__`` a default-bearing
    dataclass would carry dominates the record's own footprint.
    """

    __slots__ = (
        "certificate", "diverted", "referrers", "corrupted",
        "stored_at", "last_checked",
    )

    def __init__(
        self,
        certificate: FileCertificate,
        diverted: bool = False,
        corrupted: bool = False,
        stored_at: float = 0.0,
        last_checked: float = 0.0,
    ):
        self.certificate = certificate
        self.diverted = diverted
        #: Nodes holding a diversion pointer to this replica (for diverted
        #: replicas: the diverting primary A and the backup C).  These pairs
        #: exchange explicit keep-alives when leaf sets drift apart (§3.5).
        #: Read it like any set; write through :meth:`add_referrer` and
        #: :meth:`drop_referrer`, which own a set only while it has members.
        self.referrers: AbstractSet[int] = _NO_REFERRERS
        #: The on-disk bytes no longer match the certificate (bit rot).
        #: Maintained by :meth:`LocalStore.verify_replica`; the invariant
        #: audit reads this flag instead of re-consulting the fault plan
        #: so auditing stays free of RNG draws.
        self.corrupted = corrupted
        #: Virtual times bracketing the bit-rot exposure window: rot accrues
        #: over ``now - max(stored_at, last_checked)``.
        self.stored_at = stored_at
        self.last_checked = last_checked

    @property
    def file_id(self) -> int:
        return self.certificate.file_id

    @property
    def size(self) -> int:
        return self.certificate.size

    def add_referrer(self, node_id: int) -> None:
        if self.referrers:
            self.referrers.add(node_id)
        else:
            self.referrers = {node_id}

    def drop_referrer(self, node_id: int) -> None:
        if node_id in self.referrers:
            self.referrers.remove(node_id)
            if not self.referrers:
                self.referrers = _NO_REFERRERS

    def observed_content_hash(self) -> bytes:
        """The hash a reader recomputes over this copy's on-disk bytes.

        Matches the certificate for a healthy copy and deterministically
        diverges for a corrupt one — the flag-based stand-in for hashing
        real bytes (see :func:`repro.security.certificates.corrupted_content_hash`).
        """
        if self.corrupted:
            return corrupted_content_hash(self.file_id, self.size)
        return self.certificate.content_hash


class DiversionPointer:
    """A file-table entry referencing a replica diverted to another node."""

    __slots__ = ("certificate", "target_id", "primary")

    def __init__(
        self,
        certificate: FileCertificate,
        target_id: int,
        primary: bool = True,
    ):
        self.certificate = certificate
        self.target_id = target_id
        #: True for the diverting primary node A (the pointer that serves
        #: lookups); False for the backup pointer on node C.
        self.primary = primary

    @property
    def file_id(self) -> int:
        return self.certificate.file_id

    @property
    def size(self) -> int:
        return self.certificate.size


class LocalStore:
    """Storage contributed by one PAST node.

    ``accounting`` (optional) is called with a byte delta whenever replica
    usage changes, letting the network maintain global utilization
    counters in O(1).
    """

    __slots__ = (
        "capacity", "used", "_accounting", "node_id", "fault_plan", "now",
        "_cache_checked", "primaries", "diverted_in", "pointers", "cache",
        "backend",
    )

    def __init__(
        self,
        capacity: int,
        cache_policy: str = "gds",
        cache_fraction: float = 1.0,
        accounting: Optional[Callable[[int], None]] = None,
    ):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.used = 0  # bytes held by primary + diverted replicas
        self._accounting = accounting
        #: Disk-fault wiring, set by the network at admit time.  With no
        #: plan installed every integrity hook below is a single
        #: attribute check — the zero-cost bar the digest pins enforce.
        self.node_id: int = -1
        self.fault_plan: Optional["StorageFaultPlan"] = None
        self.now: Callable[[], float] = lambda: 0.0
        #: Optional replica-store backend (see :mod:`repro.store`): an
        #: observer of logical mutations via duck-typed ``note_*`` hooks.
        #: None (the default) is byte-identical to :class:`MemoryBackend`
        #: — a single attribute check per mutation, zero RNG draws.
        self.backend: Optional["ReplicaStoreBackend"] = None
        #: fid -> virtual time the cached copy was inserted/last verified.
        self._cache_checked: Dict[int, float] = {}
        self.primaries: Dict[int, StoredReplica] = {}
        self.diverted_in: Dict[int, StoredReplica] = {}
        self.pointers: Dict[int, DiversionPointer] = {}
        self.cache = CacheManager(
            make_policy(cache_policy),
            available_fn=self.cache_space,
            insert_fraction=cache_fraction,
        )

    # ------------------------------------------------------------ capacity

    @property
    def free(self) -> int:
        """Remaining free space ``F_N`` (cached files do not count as used)."""
        return self.capacity - self.used

    def cache_space(self) -> int:
        """The 'unused portion of advertised disk space' available to cache."""
        return self.capacity - self.used

    def utilization(self) -> float:
        return self.used / self.capacity if self.capacity else 1.0

    def can_accept(self, size: int, threshold: float) -> bool:
        """The paper's acceptance rule: reject iff ``size/free > threshold``.

        A disk in ``readonly`` mode additionally refuses all new
        replicas, feeding the §3.3 diversion machinery exactly as a
        full disk would, while existing replicas keep serving reads.
        """
        if self.fault_plan is not None and not self.fault_plan.writable(self.node_id):
            return False
        free = self.free
        if size > free:
            return False
        if free <= 0:
            return size == 0
        return size / free <= threshold

    # ------------------------------------------------------------- replicas

    def _charge(self, delta: int) -> None:
        self.used += delta
        if self._accounting is not None:
            self._accounting(delta)
        if delta > 0:
            # New replica bytes may displace cached files.
            self.cache.shrink_to(self.cache_space())

    def store_replica(self, certificate: FileCertificate, diverted: bool) -> StoredReplica:
        """Store a replica unconditionally (policy checks happen before).

        Raises :class:`CapacityError` if the bytes genuinely do not fit;
        callers are expected to have applied :meth:`can_accept` first.
        """
        fid = certificate.file_id
        plan = self.fault_plan
        if plan is not None and not plan.writable(self.node_id):
            plan.refuse_write(self.node_id)
            raise CapacityError(f"disk is {plan.disk_mode(self.node_id)}; refusing new replica")
        if fid in self.primaries or fid in self.diverted_in:
            raise CapacityError(f"replica of {fid:#x} already stored here")
        if certificate.size > self.free:
            raise CapacityError("replica exceeds free space")
        replica = StoredReplica(certificate, diverted=diverted)
        if plan is not None:
            now = self.now()
            replica.stored_at = now
            replica.last_checked = now
            # Clear any corruption record left by a prior copy of this
            # fid on this disk (e.g. a rotted cached copy).
            plan.forget(self.node_id, fid)
        if diverted:
            self.diverted_in[fid] = replica
        else:
            self.primaries[fid] = replica
        # A replica supersedes any cached copy of the same file.
        self.cache.remove(fid)
        self._charge(certificate.size)
        if self.backend is not None:
            self.backend.note_store(certificate, diverted)
        return replica

    def drop_replica(self, file_id: int) -> Optional[StoredReplica]:
        """Remove a replica (either kind); returns it if present."""
        replica = self.primaries.pop(file_id, None)
        if replica is None:
            replica = self.diverted_in.pop(file_id, None)
        if replica is not None:
            if self.fault_plan is not None:
                self.fault_plan.forget(self.node_id, file_id)
            self._charge(-replica.size)
            if self.backend is not None:
                self.backend.note_drop(file_id)
        return replica

    def drop_replica_referrers(self, file_id: int) -> Optional[List[int]]:
        """Wire-safe form of :meth:`drop_replica` for remote callers.

        Returns the dropped replica's referrers as a sorted list — the
        only piece a remote caller needs for pointer teardown — or None
        when no replica was present.  A live :class:`StoredReplica`
        must never cross the seam.
        """
        replica = self.drop_replica(file_id)
        if replica is None:
            return None
        return sorted(replica.referrers)

    def get_replica(self, file_id: int) -> Optional[StoredReplica]:
        return self.primaries.get(file_id) or self.diverted_in.get(file_id)

    # ------------------------------------------------------ verified reads

    def verify_replica(self, file_id: int) -> str:
        """One verified read of a local replica (§2.2 hash recomputation).

        Consults the storage fault plan first — bit rot accrues over the
        virtual time since this copy was stored or last verified — then
        recomputes the hash the on-disk bytes produce and compares it
        against the certificate, exactly as a client with real bytes
        would.  Returns ``READ_OK``, ``READ_CORRUPT`` (sticky until
        :meth:`repair_replica`) or :data:`REPLICA_MISSING`.
        """
        replica = self.get_replica(file_id)
        if replica is None:
            return REPLICA_MISSING
        plan = self.fault_plan
        if plan is not None:
            now = self.now()
            elapsed = now - max(replica.stored_at, replica.last_checked)
            verdict = plan.read(self.node_id, file_id, replica.size, max(0.0, elapsed))
            replica.last_checked = now
            replica.corrupted = verdict == READ_CORRUPT
        if replica.observed_content_hash() != replica.certificate.content_hash:
            return READ_CORRUPT
        return READ_OK

    def repair_replica(self, file_id: int) -> bool:
        """Overwrite a corrupt replica with a verified copy (read-repair).

        The rewrite goes through the same disk, so it is refused on a
        ``readonly`` disk (the caller must then re-replicate elsewhere).
        Returns True iff the local copy is verified-clean afterwards.
        """
        replica = self.get_replica(file_id)
        if replica is None:
            return False
        plan = self.fault_plan
        if plan is not None:
            if not plan.writable(self.node_id):
                plan.refuse_write(self.node_id)
                return False
            now = self.now()
            plan.mark_repaired(self.node_id, file_id)
            replica.stored_at = now
            replica.last_checked = now
        replica.corrupted = False
        return True

    def note_cached(self, file_id: int) -> None:
        """Stamp a fresh cache insertion; rot accrues from this instant."""
        if self.fault_plan is not None:
            self._cache_checked[file_id] = self.now()

    def verified_cache_hit(self, file_id: int) -> bool:
        """Cache lookup plus verified read.

        Cached copies are disposable — a corrupt one is simply evicted
        (no read-repair) and the lookup falls through to the replica
        holders.
        """
        if not self.cache.lookup(file_id):
            return False
        plan = self.fault_plan
        if plan is None:
            return True
        now = self.now()
        size = self.cache.size_of(file_id) or 0
        last = self._cache_checked.get(file_id, now)
        if plan.read(self.node_id, file_id, size, max(0.0, now - last)) == READ_OK:
            self._cache_checked[file_id] = now
            return True
        self.cache.remove(file_id)
        self._cache_checked.pop(file_id, None)
        plan.forget(self.node_id, file_id)
        return False

    # ------------------------------------------------------------- pointers

    def add_pointer(
        self, certificate: FileCertificate, target_id: int, primary: bool
    ) -> DiversionPointer:
        pointer = DiversionPointer(certificate, target_id, primary=primary)
        self.pointers[certificate.file_id] = pointer
        if self.backend is not None:
            self.backend.note_pointer(certificate, target_id, primary)
        return pointer

    def install_pointer(
        self, certificate: FileCertificate, target_id: int, primary: bool
    ) -> None:
        """Wire-safe form of :meth:`add_pointer` for remote callers.

        Remote nodes install backup pointers over the transport; a live
        :class:`DiversionPointer` must never cross the seam, so this
        wrapper installs the entry and returns nothing.
        """
        self.add_pointer(certificate, target_id, primary=primary)

    def drop_pointer(self, file_id: int) -> Optional[DiversionPointer]:
        pointer = self.pointers.pop(file_id, None)
        if pointer is not None and self.backend is not None:
            self.backend.note_drop_pointer(file_id)
        return pointer

    def set_pointer_primary(self, file_id: int, primary: bool) -> bool:
        """Flip a pointer's primary flag (pointer promotion, §3.5).

        The flag decides which pointer answers lookups, so it is part of
        the durable logical state — all writers must come through here
        rather than poking :attr:`DiversionPointer.primary` directly.
        Returns False if no pointer for ``file_id`` exists.
        """
        pointer = self.pointers.get(file_id)
        if pointer is None:
            return False
        if pointer.primary != primary:
            pointer.primary = primary
            if self.backend is not None:
                self.backend.note_primary_flag(file_id, primary)
        return True

    # ----------------------------------------------------------- durability

    def wipe_disk(self) -> None:
        """Destroy this disk's contents (crash = media loss).

        Empties every table without going through ``_charge`` — the
        caller owns the global byte accounting (a crashed node's bytes
        were already subtracted at crash time).  A durable backend loses
        its journal too: the media is gone, not just the process.
        """
        self.primaries.clear()
        self.diverted_in.clear()
        self.pointers.clear()
        self.cache.clear()
        self.used = 0
        self._cache_checked.clear()
        if self.backend is not None:
            self.backend.note_wipe()

    def restore_state(self, state: "StoreState") -> int:
        """Rebuild the replica/pointer tables from recovered durable state.

        Used when a killed node restarts from its WAL: the backend has
        already replayed the journal into ``state``; this re-materializes
        the live tables from it.  Deliberately does *not* call the
        backend hooks — these records are already in the journal, and
        re-appending them would double them on every restart.  Like
        :meth:`wipe_disk`, it also skips the global accounting hook:
        the node is failed while this runs, and recovery re-adds
        ``used`` wholesale when it rejoins.  Referrer sets and the
        cache are soft state the keep-alive machinery rebuilds after
        rejoin.  Returns the number of entries restored.
        """
        now = self.now() if self.fault_plan is not None else 0.0
        for fid, (cert, diverted) in sorted(state.replicas.items()):
            replica = StoredReplica(cert, diverted=diverted)
            replica.stored_at = now
            replica.last_checked = now
            if diverted:
                self.diverted_in[fid] = replica
            else:
                self.primaries[fid] = replica
            self.used += cert.size
        for fid, (cert, target, primary) in sorted(state.pointers.items()):
            self.pointers[fid] = DiversionPointer(cert, target, primary=primary)
        return len(state.replicas) + len(state.pointers)

    def reopen(self, backend: "WalBackend") -> int:
        """Restart from ``backend``'s journal: RAM is lost, the disk is not.

        The wipe runs with no backend attached — :meth:`wipe_disk` tells
        an attached backend the media is gone (``note_wipe``), which
        would discard the very journal being recovered from.  Returns
        the number of entries restored; the caller rejoins the overlay.
        """
        self.backend = None
        self.wipe_disk()
        restored = self.restore_state(backend.state)
        self.backend = backend
        return restored

    # -------------------------------------------------------------- queries

    def holds_file(self, file_id: int) -> bool:
        """Replica (either kind) present locally — satisfies a lookup."""
        return file_id in self.primaries or file_id in self.diverted_in

    def references_file(self, file_id: int) -> bool:
        """Replica or diversion pointer present — satisfies the k-invariant."""
        return self.holds_file(file_id) or file_id in self.pointers

    def file_ids(self) -> List[int]:
        """All fileIds this node is responsible for (replicas + pointers).

        Returned sorted: callers iterate this to drive repairs, so the
        order must not depend on set iteration order.
        """
        seen = set(self.primaries)
        seen.update(self.diverted_in)
        seen.update(self.pointers)
        return sorted(seen)

    def certificate_for(self, file_id: int) -> Optional[FileCertificate]:
        replica = self.get_replica(file_id)
        if replica is not None:
            return replica.certificate
        pointer = self.pointers.get(file_id)
        return pointer.certificate if pointer is not None else None

    def snapshot(self) -> dict:
        """Summary counters for stats and debugging."""
        return {
            "capacity": self.capacity,
            "used": self.used,
            "free": self.free,
            "primaries": len(self.primaries),
            "diverted_in": len(self.diverted_in),
            "pointers": len(self.pointers),
            "cached": len(self.cache),
            "cache_bytes": self.cache.bytes_used,
        }
