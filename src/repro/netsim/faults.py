"""Deterministic fault-injection plane for the network emulation.

The emulator's message plane is perfectly reliable by default, yet the
paper's robustness claims are exactly about an unreliable one: §2.3 says
a client whose request is lost "must retry" under randomized routing,
and §3.5's durability argument counts a file lost only when all k
replica holders fail within one recovery period.  A :class:`FaultPlan`
is a seeded, replayable description of adversity — uniform message
loss, delay and duplication, network partitions with heal events, and
silent-crash/restart schedules — that upper layers *consult* at every
transmission point:

* :meth:`repro.pastry.network.PastryNetwork.route` asks the plan about
  every overlay hop (:meth:`FaultPlan.transmit`);
* :class:`repro.pastry.keepalive.KeepAliveMonitor` asks it about every
  keep-alive probe, and PAST's maintenance/fetch RPCs ask about
  request/reply pairs (:meth:`FaultPlan.rpc_lost`);
* over real TCP, :class:`repro.net.asyncio_transport.AsyncioTransport`
  asks :meth:`FaultPlan.transmit` about every fault-scoped socket leg
  (its ``install_faults``) — one plan type for both engines.

The storage plane gets the same treatment: a :class:`StorageFaultPlan`
describes *disk* adversity — bit rot accruing per replica-byte of
virtual time, a per-node ``readonly`` disk mode, and the seeded length
of a torn flush — and the per-node stores consult it on every store and
every verified read.

Layering: this module knows nothing about Pastry or PAST — nodes are
plain integers, time is whatever the bound clock callable returns — so
``netsim`` stays a leaf package.  Determinism: all randomness comes from
one ``random.Random`` seeded in the constructor and consumed in call
order, so two runs that issue the same transmissions in the same order
make identical fault decisions.  A plan that injects nothing draws
nothing, and an absent plan (``None``) costs the hot path a single
attribute check — the zero-cost-abstraction property the determinism
regression suite pins.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Sequence, Set, Tuple

#: Effectively "never heals" for partition end times.
NEVER = float("inf")


@dataclass(frozen=True, slots=True)
class Partition:
    """One network cut: ``group`` vs. everyone else, active in [start, end).

    A message (or probe) crossing the cut while it is active is lost
    with certainty; traffic within either side is unaffected.  ``end``
    is the heal time (:data:`NEVER` for a permanent cut).  Slotted:
    partition storms build one per cut per spec materialization.
    """

    start: float
    end: float
    group: FrozenSet[int]

    def severs(self, a: int, b: int, now: float) -> bool:
        """True when the link a<->b crosses the cut at time ``now``."""
        if not self.start <= now < self.end:
            return False
        return (a in self.group) != (b in self.group)


class CrashEvent:
    """One silent crash (and optional restart) in a fault schedule.

    The plan only *describes* the event; the harness driving the
    simulation applies it (crash the node, wipe its disk, schedule the
    restart).  Keeping application out of this layer lets the same plan
    drive a Pastry-only overlay or a full PAST deployment.

    Plain ``__slots__`` class: crash storms schedule one per node, so
    instances are loop-allocated and should not carry a ``__dict__``.
    """

    __slots__ = ("time", "node_id", "restart_at", "wipe_disk")

    def __init__(
        self,
        time: float,
        node_id: int,
        restart_at: Optional[float] = None,
        wipe_disk: bool = False,
    ) -> None:
        self.time = time
        self.node_id = node_id
        self.restart_at = restart_at
        self.wipe_disk = wipe_disk

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CrashEvent):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"CrashEvent({fields})"


class Transmission:
    """The plan's verdict on one message hop.

    Plain ``__slots__`` class: one verdict is drawn per message hop —
    the hottest allocation site in the whole emulator.
    """

    __slots__ = ("lost", "delay", "duplicate")

    def __init__(
        self,
        lost: bool = False,
        delay: float = 0.0,
        duplicate: bool = False,
    ) -> None:
        self.lost = lost
        #: Virtual-time latency injected into this hop (0 when undelayed).
        self.delay = delay
        #: The receiver gets a second, independently-routed copy.
        self.duplicate = duplicate

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transmission):
            return NotImplemented
        return (
            self.lost == other.lost
            and self.delay == other.delay
            and self.duplicate == other.duplicate
        )

    def __repr__(self) -> str:
        return (
            f"Transmission(lost={self.lost!r}, delay={self.delay!r}, "
            f"duplicate={self.duplicate!r})"
        )


#: Verdict singletons for the two common no-draw cases.
_CLEAN = Transmission()
_LOST = Transmission(lost=True)


@dataclass
class FaultStats:
    """Counters for every fault the plan actually injected.

    The network counters are filled by :class:`FaultPlan` (``resets``
    by the TCP transport consulting it), the storage counters by
    :class:`StorageFaultPlan`; a harness running both folds the two
    instances into one report.
    """

    messages_lost: int = 0
    partition_drops: int = 0
    probes_lost: int = 0
    rpcs_lost: int = 0
    duplicates: int = 0
    delays_injected: int = 0
    delay_total: float = 0.0
    #: Surviving socket legs torn mid-frame (a wire-only fault).
    resets: int = 0
    # ------------------------------------------------- storage faults
    bitrot_corruptions: int = 0
    writes_refused: int = 0


class FaultPlan:
    """A seeded, deterministic schedule of network adversity.

    Parameters
    ----------
    seed:
        Seeds the plan's private RNG; all probabilistic decisions are
        drawn from it in call order.
    loss:
        Uniform per-hop message-loss probability.
    delay_mean:
        Mean of the exponential per-hop extra latency (0 disables).
    duplicate:
        Per-hop probability that the receiver gets a second copy.

    Partitions and the crash schedule are configured through the builder
    methods so a plan reads as a small declarative script::

        plan = FaultPlan(seed=7, loss=0.05)
        plan.add_partition(at=4.0, heal_at=9.0, group=node_ids[:5])
        plan.schedule_crash(2.0, node_ids[3], restart_at=8.0, wipe_disk=True)
    """

    def __init__(
        self,
        seed: int = 0,
        loss: float = 0.0,
        delay_mean: float = 0.0,
        duplicate: float = 0.0,
    ):
        for name, p in (("loss", loss), ("duplicate", duplicate)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if delay_mean < 0.0:
            raise ValueError("delay_mean must be non-negative")
        self.seed = seed
        self.rng = random.Random(seed)
        self.loss = loss
        self.delay_mean = delay_mean
        self.duplicate = duplicate
        self.partitions: List[Partition] = []
        self.crashes: List[CrashEvent] = []
        self.stats = FaultStats()
        #: Test/instrumentation hook run before each hop's fault decision
        #: with ``(src, dst)`` — e.g. crash the chosen next hop mid-route.
        self.on_transmit: Optional[Callable[[int, int], None]] = None
        self._now: Callable[[], float] = lambda: 0.0

    # ------------------------------------------------------------- building

    def bind_clock(self, now_fn: Callable[[], float]) -> "FaultPlan":
        """Attach the virtual clock that timed faults (partitions) read."""
        self._now = now_fn
        return self

    @property
    def now(self) -> float:
        return self._now()

    def add_partition(self, at: float, heal_at: float, group) -> Partition:
        """Cut ``group`` off from the rest of the network in [at, heal_at)."""
        if heal_at < at:
            raise ValueError("a partition cannot heal before it starts")
        partition = Partition(start=at, end=heal_at, group=frozenset(group))
        self.partitions.append(partition)
        return partition

    def schedule_crash(
        self,
        time: float,
        node_id: int,
        restart_at: Optional[float] = None,
        wipe_disk: bool = False,
    ) -> CrashEvent:
        """Add a silent crash (and optional restart) to the schedule."""
        if restart_at is not None and restart_at < time:
            raise ValueError("restart cannot precede the crash")
        event = CrashEvent(time, node_id, restart_at, wipe_disk)
        self.crashes.append(event)
        return event

    def schedule_crash_storm(
        self,
        node_ids: Sequence[int],
        start: float,
        interarrival: float,
        restart_after: Optional[float] = None,
        wipe_disk: bool = False,
    ) -> List[CrashEvent]:
        """Crash ``node_ids`` in order, seeded-exponential interarrivals.

        ``interarrival`` is the mean gap between consecutive crashes.
        When it is much larger than the deployment's recovery period the
        §3.5 durability argument predicts zero lost files; pushing it
        *below* the recovery period is how the chaos harness reproduces
        overlapping failures that defeat k-replication.
        """
        if interarrival <= 0:
            raise ValueError("interarrival must be positive")
        out = []
        when = start
        for node_id in node_ids:
            when += self.rng.expovariate(1.0 / interarrival)
            restart = None if restart_after is None else when + restart_after
            out.append(self.schedule_crash(when, node_id, restart, wipe_disk))
        return out

    # ------------------------------------------------------------ decisions

    def _severed(self, a: int, b: int) -> bool:
        if not self.partitions:
            return False
        now = self._now()
        return any(p.severs(a, b, now) for p in self.partitions)

    def transmit(self, src: int, dst: int) -> Transmission:
        """Decide the fate of one routed overlay hop ``src -> dst``."""
        if self.on_transmit is not None:
            self.on_transmit(src, dst)
        if self._severed(src, dst):
            self.stats.messages_lost += 1
            self.stats.partition_drops += 1
            return _LOST
        p = self.loss
        if p > 0.0 and self.rng.random() < p:
            self.stats.messages_lost += 1
            return _LOST
        delay = 0.0
        if self.delay_mean > 0.0:
            delay = self.rng.expovariate(1.0 / self.delay_mean)
            self.stats.delays_injected += 1
            self.stats.delay_total += delay
        duplicate = False
        if self.duplicate > 0.0 and self.rng.random() < self.duplicate:
            duplicate = True
            self.stats.duplicates += 1
        if delay == 0.0 and not duplicate:
            return _CLEAN
        return Transmission(lost=False, delay=delay, duplicate=duplicate)

    def rpc_lost(self, a: int, b: int) -> bool:
        """Decide the fate of a request/reply pair between two nodes.

        Used for keep-alive probes and direct (non-routed) RPCs such as
        hedged replica fetches.  The request and the reply each face the
        loss probability, one draw apiece; loss is decided *before* any
        side effect, so a lost RPC behaves as if the request never
        arrived (the reply-lost-after-effect case is not modelled — see
        DESIGN.md §4e for why the oracles stay sound).
        """
        if self._severed(a, b):
            self.stats.rpcs_lost += 1
            return True
        p = self.loss
        if p > 0.0 and (self.rng.random() < p or self.rng.random() < p):
            self.stats.rpcs_lost += 1
            return True
        return False

    def probe_lost(self, observer: int, peer: int) -> bool:
        """Keep-alive probe verdict (an rpc with its own counter)."""
        if self.rpc_lost(observer, peer):
            self.stats.rpcs_lost -= 1
            self.stats.probes_lost += 1
            return True
        return False


# ----------------------------------------------------------- disk faults

#: Disk health modes a :class:`StorageFaultPlan` can put a node into.
DISK_OK = "ok"
DISK_READONLY = "readonly"

_DISK_MODES = (DISK_OK, DISK_READONLY)

#: Verdicts for one replica read (:meth:`StorageFaultPlan.read`).
READ_OK = "ok"
READ_CORRUPT = "corrupt"

#: Kill phases for a durable store's fsync barrier (armed on its
#: :class:`~repro.store.vfs.Vfs`), ordered by how much of the pending
#: (written-but-unsynced) data survives the kill:
#: ``before-fsync`` — the process dies after write() but before the
#: fsync barrier, so none of the pending bytes reach the platter;
#: ``torn-fsync`` — the device loses power mid-flush and a seeded
#: prefix of the pending bytes lands (the classic torn tail record);
#: ``after-fsync`` — the barrier completes and the process dies
#: immediately after, losing nothing durable.
CRASH_BEFORE_FSYNC = "before-fsync"
CRASH_TORN_FSYNC = "torn-fsync"
CRASH_AFTER_FSYNC = "after-fsync"

CRASH_PHASES = (CRASH_BEFORE_FSYNC, CRASH_TORN_FSYNC, CRASH_AFTER_FSYNC)


@dataclass(frozen=True)
class DiskModeEvent:
    """One disk-mode transition (applied lazily by time)."""

    time: float
    node_id: int
    mode: str


class StorageFaultPlan:
    """A seeded, deterministic schedule of *disk* adversity.

    Parameters
    ----------
    seed:
        Seeds the plan's private RNG; all probabilistic decisions are
        drawn from it in call order.
    bitrot_rate:
        Corruption hazard per replica-byte per unit of virtual time:
        a replica of ``size`` bytes left unverified for ``dt`` rots with
        probability ``1 - exp(-bitrot_rate * size * dt)``.  Rot is
        evaluated lazily at read time and memoized — once a replica has
        rotted it stays corrupt until :meth:`mark_repaired`.

    Disk modes: a ``readonly`` disk refuses all new replica bytes
    (:meth:`writable`) while its existing replicas keep serving reads.
    Every mode transition is one event on a single time-ordered list —
    immediate ones (:meth:`set_disk_mode`) at the current virtual time,
    scheduled ones (:meth:`schedule_disk_mode`) at theirs — evaluated
    lazily against the bound clock, like partitions; the latest event
    that has come due wins.

    Determinism mirrors :class:`FaultPlan`: one RNG consumed in call
    order, zero rot draws while ``bitrot_rate`` is zero, and an absent
    plan (``None``) costs the store/read hot paths a single attribute
    check.
    """

    def __init__(self, seed: int = 0, bitrot_rate: float = 0.0):
        if bitrot_rate < 0.0:
            raise ValueError("bitrot_rate must be non-negative")
        self.seed = seed
        self.rng = random.Random(seed)
        self.bitrot_rate = bitrot_rate
        self.stats = FaultStats()
        #: Disk-mode transitions, kept sorted by (time, insertion order).
        self._mode_events: List[DiskModeEvent] = []
        #: (node, file) pairs whose on-disk bytes are known corrupt.
        self._corrupt: Set[Tuple[int, int]] = set()
        self._now: Callable[[], float] = lambda: 0.0

    # ------------------------------------------------------------- building

    def bind_clock(self, now_fn: Callable[[], float]) -> "StorageFaultPlan":
        """Attach the virtual clock that rot and mode schedules read."""
        self._now = now_fn
        return self

    @property
    def now(self) -> float:
        return self._now()

    def set_disk_mode(self, node_id: int, mode: str) -> None:
        """Put a node's disk into ``mode`` now: a transition at :attr:`now`."""
        self.schedule_disk_mode(self._now(), node_id, mode)

    def schedule_disk_mode(self, time: float, node_id: int, mode: str) -> DiskModeEvent:
        """Transition a node's disk into ``mode`` at virtual ``time``."""
        if mode not in _DISK_MODES:
            raise ValueError(f"unknown disk mode {mode!r}")
        event = DiskModeEvent(time, node_id, mode)
        self._mode_events.append(event)
        self._mode_events.sort(key=lambda e: e.time)
        return event

    def torn_length(self, pending: int) -> int:
        """Seeded number of pending bytes that land during a torn flush.

        Drawn from the plan's RNG so two runs with the same seed tear
        the same number of bytes; always a *strict* prefix, so a torn
        flush is never indistinguishable from a completed one.
        """
        if pending <= 1:
            return 0
        return self.rng.randrange(pending)

    # ------------------------------------------------------------ decisions

    def disk_mode(self, node_id: int) -> str:
        """The node's disk mode at the current virtual time."""
        mode = DISK_OK
        if self._mode_events:
            now = self._now()
            for event in self._mode_events:
                if event.time > now:
                    break
                if event.node_id == node_id:
                    mode = event.mode
        return mode

    def writable(self, node_id: int) -> bool:
        """Whether new replica bytes may be written to this disk."""
        return self.disk_mode(node_id) == DISK_OK

    def refuse_write(self, node_id: int) -> None:
        """Count one store refused by a readonly disk."""
        self.stats.writes_refused += 1

    def read(self, node_id: int, file_id: int, size: int, elapsed: float) -> str:
        """Verdict for one replica read.

        ``elapsed`` is the virtual time since this copy was last stored
        or verified; bit rot accrues over it.  Returns :data:`READ_OK`
        or :data:`READ_CORRUPT` (sticky until :meth:`mark_repaired`).
        """
        key = (node_id, file_id)
        if key in self._corrupt:
            return READ_CORRUPT
        if self.bitrot_rate > 0.0 and elapsed > 0.0:
            p = 1.0 - math.exp(-self.bitrot_rate * size * elapsed)
            if self.rng.random() < p:
                self._corrupt.add(key)
                self.stats.bitrot_corruptions += 1
                return READ_CORRUPT
        return READ_OK

    # ---------------------------------------------------------- bookkeeping

    def is_corrupt(self, node_id: int, file_id: int) -> bool:
        return (node_id, file_id) in self._corrupt

    def mark_repaired(self, node_id: int, file_id: int) -> None:
        """A verified copy was rewritten over the corrupt bytes."""
        self._corrupt.discard((node_id, file_id))

    def forget(self, node_id: int, file_id: int) -> None:
        """The replica left this disk (dropped/migrated); clear its state."""
        self._corrupt.discard((node_id, file_id))

    def forget_node(self, node_id: int) -> None:
        """A disk was wiped; clear every corruption record it held."""
        self._corrupt = {key for key in self._corrupt if key[0] != node_id}
