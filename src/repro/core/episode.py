"""One fault episode: seeded deployment, crash schedule, quiescence, verdict.

The paper's robustness claims are conditional: a file is lost only if
all k holders fail *within one recovery period* (§3.5), and the storage
invariants hold "despite random node failures and recoveries" (§5).
Mid-episode a dangling pointer whose repair RPC was lost, or a crash
nobody has detected yet, is a state the protocol is allowed to be in —
so the overlay audit is only sound after :meth:`Episode.quiesce`, which lives
beside it so that every harness (chaos sweeps, WAL crash-restart sweep,
live TCP sweep, schedule explorer) runs the one implementation:

1. **heal** — drop the network fault plan (loss, partitions end here);
2. **materialise** — one verified read of every replica, so latent rot
   becomes visible to the read-only audit, then drop the storage plan:
   disks are healthy from here on, the corruption on them stays;
3. **restart** every node still down, in sorted order (operators
   replace dead machines; a wiped disk stays wiped, so no lost file is
   resurrected);
4. **detect** — run the simulator through a fault-free wait the caller
   states, so every pending keep-alive expiry fires;
5. **stop** the keep-alive monitor, then one full ``repair_all()``;
6. **scrub** twice: round one heals every corrupt copy that still has a
   verified donor, round two the copies round one made healable.

Each step is a no-op when its plane is absent, so a harness states only
what it has.  DESIGN.md ("Episode protocol") has the rationale, and why
the explorer's scenarios schedule *heal* as an event of their own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..netsim.eventsim import EventHandle, EventSimulator, SchedulePolicy
from ..netsim.trace import ScheduleTrace
from ..pastry.keepalive import KeepAliveMonitor
from .config import PastConfig
from .integrity import AntiEntropyScrubber
from .invariants import audit
from .network import PastNetwork

#: The keep-alive protocol every episode runs unless it says otherwise
#: (§2.1's T is the timeout; detection latency is T plus one interval).
PROBE_INTERVAL = 1.0
PROBE_TIMEOUT = 3.0

SizeDraw = Callable[[random.Random], int]


def lognormal_size(sigma: float, cap: int) -> SizeDraw:
    """The paper-shaped file-size draw: lognormal(7.2, sigma), capped."""
    return lambda rng: min(int(rng.lognormvariate(7.2, sigma)) + 1, cap)


def build_deployment(
    config: PastConfig,
    capacities: Sequence[int],
    n_files: int,
    draw_size: SizeDraw,
    rng: random.Random,
    owner: str,
    prefix: str,
    store_backend_factory=None,
) -> PastNetwork:
    """A fault-free deployment with ``n_files`` inserted from random nodes.

    Per file the RNG yields the size, then the origin index — callers
    draw ``capacities`` from the same ``rng`` first, so one seed fixes
    the whole deployment.  ``owner`` and ``prefix`` name the client and
    its files (``f"{prefix}{i}"``); both feed the fileIds.  An insert
    the deployment cannot place is simply absent from
    ``net.live_file_ids()``.
    """
    net = PastNetwork(config)
    if store_backend_factory is not None:
        # Installed before build so every admitted node's LocalStore is
        # born with its durable backend (journaling from record one).
        net.store_backend_factory = store_backend_factory
    net.build(capacities)
    client = net.create_client(owner)
    node_ids = [n.node_id for n in net.nodes()]
    for i in range(n_files):
        size = draw_size(rng)
        net.insert(
            f"{prefix}{i}", client, size, node_ids[rng.randrange(len(node_ids))]
        )
    return net


class Episode:
    """A deployment under faults: simulator, trace, monitor, crash schedule.

    Construction schedules nothing; the caller starts ``monitor`` (and
    assigns and starts a ``scrubber``) where its scenario's event order
    wants them, because schedule-trace digests cover sequence numbers.
    """

    def __init__(
        self,
        net: PastNetwork,
        trace: Optional[ScheduleTrace] = None,
        policy: Optional[SchedulePolicy] = None,
        on_detect: Optional[Callable[[int], None]] = None,
        interval: float = PROBE_INTERVAL,
        timeout: float = PROBE_TIMEOUT,
    ):
        self.net = net
        self.trace = trace if trace is not None else ScheduleTrace()
        self.sim = EventSimulator(trace=self.trace, policy=policy)
        self.monitor = KeepAliveMonitor(
            self.sim, net.pastry,
            on_detect=on_detect or net.process_failure_detection,
            interval=interval, timeout=timeout,
        )
        self.scrubber: Optional[AntiEntropyScrubber] = None
        self.crashes_applied = 0
        self.restarts_applied = 0

    def crash_at(self, when: float, node_id: int, wipe_disk: bool = False,
                 label: str = "crash") -> EventHandle:
        """Schedule a silent crash (no detection yet) of ``node_id``.

        Skipped if the node is already down, or if the overlay would
        drop to k + 2 live nodes — below that a scenario tests the
        harness, not the protocol.  ``label`` is the event's name in
        the schedule trace, which pinned digests cover.
        """
        def crash() -> None:
            net = self.net
            if net.pastry.is_live(node_id) and len(net) > net.config.k + 2:
                net.crash_node(node_id)
                if wipe_disk:
                    net.wipe_failed_disk(node_id)
                self.crashes_applied += 1

        crash.__qualname__ = label
        return self.sim.schedule_at(when, crash)

    def recover(self, node_id: int) -> None:
        """Bring a crashed node back, disk as the crash left it."""
        self.net.recover_node(node_id)
        self.restarts_applied += 1

    def recover_at(self, when: float, node_id: int,
                   label: str = "recover") -> EventHandle:
        """Schedule ``node_id``'s recovery; a no-op unless it is down.

        The monitor and scrubber re-watch the node by themselves (both
        listen for overlay recoveries).
        """
        def recover() -> None:
            if node_id in self.net._failed_past:
                self.recover(node_id)

        recover.__qualname__ = label
        return self.sim.schedule_at(when, recover)

    def heal(self) -> None:
        """Steps 1 and 2: both fault planes end, rot on disk made visible."""
        self.net.pastry.fault_plan = None
        if self.net.storage_faults is not None:
            self.net.verify_all_replicas()
            self.net.remove_storage_faults()

    def quiesce(self, settle: float = 0.0,
                restart: Optional[Callable[[int], object]] = None) -> None:
        """Bring the deployment to the fixpoint the overlay audit presumes.

        The ordered steps are in the module docstring.  ``settle`` is
        the fault-free virtual time the detection fixpoint runs for: a
        keep-alive harness states one timeout plus two probe intervals,
        a schedule that already contains its fault-free tail (or a
        harness with no simulated clock at all) states none.
        ``restart`` replaces :meth:`recover` where nodes come back some
        other way (from a WAL, over TCP).
        """
        self.heal()
        restart = restart or self.recover
        for node_id in sorted(self.net._failed_past):
            restart(node_id)
        self.sim.run_until(self.sim.now + settle)
        self.monitor.stop()
        self.net.repair_all()
        if self.scrubber is not None:
            self.scrubber.stop()
            self.scrubber.scrub_all()
            self.scrubber.scrub_all()


@dataclass
class Verdict:
    """What the post-quiescence audit found, in report-ready form."""

    audit_ok: bool
    violations: List[str]
    lost_files: int
    lost_file_ids: List[str]
    corrupt_files: int
    unrecoverable_files: int
    unrecoverable_file_ids: List[str]

    def fill(self, report: object) -> None:
        """Copy onto ``report`` every verdict field it declares."""
        for name, value in vars(self).items():
            if hasattr(report, name):
                setattr(report, name, value)


def verdict(net: PastNetwork) -> Verdict:
    """Audit a quiesced deployment, overlay included."""
    outcome = audit(net, check_overlay=True)
    return Verdict(
        audit_ok=outcome.ok,
        violations=[str(v) for v in outcome.violations],
        lost_files=outcome.lost_files,
        lost_file_ids=[hex(fid) for fid in sorted(outcome.lost_file_ids)],
        corrupt_files=outcome.corrupt_files,
        unrecoverable_files=outcome.unrecoverable_files,
        unrecoverable_file_ids=[
            hex(fid) for fid in sorted(outcome.unrecoverable_file_ids)
        ],
    )
