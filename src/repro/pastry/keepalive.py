"""The keep-alive failure-detection protocol (§2.1).

"Neighboring nodes in the nodeId space (which are aware of each other by
virtue of being in each other's leaf set) periodically exchange
keep-alive messages.  If a node is unresponsive for a period T, it is
presumed failed."

:class:`KeepAliveMonitor` runs that protocol on a
:class:`~repro.netsim.eventsim.EventSimulator`: every node probes its
leaf-set members every ``interval``; a probe to a crashed node goes
unanswered, and once a peer has been silent for ``timeout`` (the paper's
T), the witness declares it failed.  The first declaration triggers the
detection callback — in a PAST deployment,
:meth:`repro.core.network.PastNetwork.process_failure_detection`.

The resulting detection latency is ``timeout`` plus up to one probe
``interval``, which is exactly the "recovery period" the availability
analysis sweeps.

Probes traverse the emulated network, so when the overlay has a
:class:`~repro.netsim.faults.FaultPlan` installed each probe is subject
to loss and partitions.  Under sustained loss a *live* peer can be
presumed failed (a false positive the real protocol also exhibits); the
first probe that does get through refutes the presumption so the peer
becomes re-detectable if it later truly fails.

Recovered nodes are re-watched automatically: the monitor registers a
recovery listener with the overlay, so a node brought back by
``recover_node`` resumes probing (and becomes re-detectable) without the
scenario having to remember to call :meth:`forget`/:meth:`watch`.
"""

from __future__ import annotations

from typing import Callable, Dict, Set, Tuple

from ..netsim.transport import SimTransport
from .network import PastryNetwork


class KeepAliveMonitor:
    """Periodic leaf-set keep-alives with timeout-based failure detection.

    ``sim`` is the :class:`~repro.netsim.eventsim.EventSimulator` the
    monitor runs on; it is wrapped in a
    :class:`~repro.netsim.transport.SimTransport` over ``pastry``, and all
    clock reads, timers and probes go through that seam.
    """

    def __init__(
        self,
        sim,
        pastry: PastryNetwork,
        on_detect: Callable[[int], None],
        interval: float = 1.0,
        timeout: float = 3.0,
    ):
        if interval <= 0 or timeout <= 0:
            raise ValueError("interval and timeout must be positive")
        self.transport = SimTransport(sim, pastry)
        self.pastry = pastry
        self.on_detect = on_detect
        self.interval = interval
        self.timeout = timeout
        #: (observer, peer) -> virtual time the peer last answered a probe.
        self.last_heard: Dict[Tuple[int, int], float] = {}
        self.detected: Set[int] = set()
        self.probes_sent = 0
        self._timers = {}
        # Per-node indexes over last_heard, so unwatch()/forget() clean up
        # in O(degree) instead of scanning the whole dict.
        self._peers_of: Dict[int, Set[int]] = {}
        self._observers_of: Dict[int, Set[int]] = {}
        self._active = False
        pastry.add_recovery_listener(self._on_recover)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin probing from every currently live node."""
        self._active = True
        for node in self.pastry.nodes():
            self.watch(node.node_id)

    def watch(self, node_id: int) -> None:
        """Start this node's periodic probe timer (idempotent).

        The peers currently in the node's leaf set are seeded into
        ``last_heard`` *now*: their timeout window starts at watch time,
        not backdated to a probe interval before first contact.
        """
        if node_id in self._timers:
            return
        node = self.pastry.get_live(node_id)
        if node is not None:
            now = self.transport.now()
            for peer_id in node.leafset.sorted_members():
                self._record_heard(node_id, peer_id, now)
        self._timers[node_id] = self.transport.every(
            self.interval, lambda nid=node_id: self._probe_round(nid)
        )

    def unwatch(self, node_id: int) -> None:
        """Stop the node's probe timer and drop its observer-side state.

        Entries where the node is the *peer* are left alone: other
        observers are still probing it.
        """
        timer = self._timers.pop(node_id, None)
        if timer is not None:
            timer.stop()
        for peer_id in sorted(self._peers_of.get(node_id, ())):
            self._drop_entry(node_id, peer_id)

    def stop(self) -> None:
        self._active = False
        for node_id in list(self._timers):
            self.unwatch(node_id)

    def _on_recover(self, node_id: int) -> None:
        """Overlay recovery listener: make the node re-detectable and,
        while the monitor is running, resume probing from it."""
        self.forget(node_id)
        if self._active:
            self.watch(node_id)

    # ----------------------------------------------------------- bookkeeping

    def _record_heard(self, observer_id: int, peer_id: int, when: float) -> None:
        key = (observer_id, peer_id)
        if key not in self.last_heard:
            self._peers_of.setdefault(observer_id, set()).add(peer_id)
            self._observers_of.setdefault(peer_id, set()).add(observer_id)
        self.last_heard[key] = when

    def _drop_entry(self, observer_id: int, peer_id: int) -> None:
        if self.last_heard.pop((observer_id, peer_id), None) is None:
            return
        peers = self._peers_of.get(observer_id)
        if peers is not None:
            peers.discard(peer_id)
            if not peers:
                del self._peers_of[observer_id]
        observers = self._observers_of.get(peer_id)
        if observers is not None:
            observers.discard(observer_id)
            if not observers:
                del self._observers_of[peer_id]

    # -------------------------------------------------------------- probing

    def _probe_round(self, observer_id: int) -> None:
        observer = self.pastry.get_live(observer_id)
        if observer is None:
            # The observer itself crashed; its timer dies with it.
            self.unwatch(observer_id)
            return
        # Sorted: on_detect can trigger repairs, so detection order within
        # a probe round must not depend on set iteration order.
        #
        # Each probe is a suspension point under a concurrent transport,
        # so the clock is re-read after every probe and every write to the
        # monitor's state re-checks it first: an unwatch() interleaved
        # mid-round must not have its cleanup silently resurrected by a
        # probe answer that was already in flight.
        for peer_id in observer.leafset.sorted_members():
            self.probes_sent += 1
            if self.pastry.is_live(peer_id):
                if self.transport.probe(observer_id, peer_id):
                    now = self.transport.now()
                    if (
                        (observer_id, peer_id) in self.last_heard
                        or observer_id in self._timers
                    ):
                        self._record_heard(observer_id, peer_id, now)
                    # A live answer refutes an earlier (loss-induced)
                    # presumption of failure: the peer is re-detectable.
                    if peer_id in self.detected:
                        self.detected.discard(peer_id)
                    continue
                # The probe (or its reply) was lost: to the observer this
                # round is indistinguishable from a dead peer.
            now = self.transport.now()
            if (observer_id, peer_id) not in self.last_heard:
                # A peer that entered the leaf set after watch() and has
                # never answered: its window starts now.
                if observer_id in self._timers:
                    self._record_heard(observer_id, peer_id, now)
                continue
            last = self.last_heard[(observer_id, peer_id)]
            if now - last >= self.timeout and peer_id not in self.detected:
                # Presumed failed: the witness's keep-alives went
                # unanswered for T.  Fire detection exactly once.
                self.detected.add(peer_id)
                self.on_detect(peer_id)

    def forget(self, node_id: int) -> None:
        """Clear detection state (e.g. after the node recovers)."""
        self.detected.discard(node_id)
        for observer_id in sorted(self._observers_of.get(node_id, ())):
            self._drop_entry(observer_id, node_id)
        for peer_id in sorted(self._peers_of.get(node_id, ())):
            self._drop_entry(node_id, peer_id)
