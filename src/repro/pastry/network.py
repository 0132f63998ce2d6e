"""The Pastry overlay: node registry, routing engine, join/failure protocols.

This is the single-process emulation environment the paper uses for its
experiments: every node instance lives in one interpreter and RPCs are
direct method calls, but all routing decisions use only node-local state
(leaf set, routing table, neighborhood set) and every hop is accounted in
:class:`repro.netsim.MessageStats`.

A small amount of *global* state (a sorted index of live nodeIds, a grid
over every placed coordinate) is kept by the emulator itself.  It is used only for test oracles and for emulator
services that stand in for out-of-band mechanisms (e.g. finding a
proximity-nearby bootstrap node for a joining node); it is never consulted
by the routing algorithm.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..netsim import MessageStats, TorusTopology
from ..netsim.faults import FaultPlan
from ..netsim.transport import SimTransport
from . import idspace
from .node import PastryNode

#: Safety bound on route length; a loop raises instead of spinning.
MAX_ROUTE_HOPS = 256


class RoutingError(RuntimeError):
    """Raised when routing cannot make progress (should not happen)."""


@dataclass(frozen=True)
class DeliveryRecord:
    """Delivery-point annotation for one routed message.

    Captured when a :class:`PastryNetwork` has a delivery log enabled
    (see :meth:`PastryNetwork.start_delivery_log`).  ``closest_live`` is
    the *global* numerically-closest-live oracle evaluated at the moment
    of delivery — not later — so a checker running at quiescence can
    still decide whether each individual delivery was correct even
    though membership has churned since.  ``intercepted`` marks
    application interceptions (PAST stops lookups at the first replica),
    which legitimately terminate away from the closest node; ``dropped``
    marks messages absorbed by a malicious node.
    """

    __slots__ = (
        "key", "origin", "terminus", "closest_live", "hops",
        "intercepted", "dropped", "lost", "duplicate",
    )

    key: int
    origin: int
    terminus: Optional[int]
    closest_live: Optional[int]
    hops: int
    intercepted: bool
    dropped: bool
    #: The fault plane lost the message in flight (no delivery happened).
    lost: bool
    #: This record is the extra copy created by link-level duplication.
    duplicate: bool

    @property
    def misdelivered(self) -> bool:
        """True when a normal delivery ended at the wrong node."""
        return (
            not self.intercepted
            and not self.dropped
            and not self.lost
            and self.terminus != self.closest_live
        )


@dataclass
class RouteResult:
    """Outcome of routing one message."""

    path: List[int] = field(default_factory=list)
    terminus: Optional[int] = None
    intercepted: bool = False
    distance: float = 0.0
    #: True when a malicious node silently absorbed the message (§2.3).
    dropped: bool = False
    #: True when the fault plane lost the message on some hop.
    lost: bool = False
    #: Virtual-time latency injected by the fault plane along the path.
    latency: float = 0.0
    #: The routed message in its final state: whatever the up-calls along
    #: the path recorded in it comes back here, not in the caller's object.
    message: Any = None

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)


class PastryNetwork:
    """A self-organizing overlay of :class:`PastryNode` instances."""

    def __init__(
        self,
        b: int = 4,
        l: int = 32,
        topology: Optional[TorusTopology] = None,
        seed: int = 0,
        randomize_routing: bool = False,
    ):
        self.b = b
        self.l = l
        self.topology = topology if topology is not None else TorusTopology()
        self.rng = random.Random(seed)
        self.randomize_routing = randomize_routing
        #: NodeIds that accept messages but do not forward them (§2.3's
        #: threat model).  They still answer keep-alives, so they are not
        #: detected as failed — only randomized routing defeats them.
        self.malicious: set = set()
        #: Optional callable ``node_id -> bool``: when set, nodes refuse to
        #: learn routing state for ids whose signed identity does not
        #: verify (§2.3: entries "are signed by the associated node and
        #: can be verified"; forged entries are rejected, suppression is
        #: the worst an attacker can do).
        self.identity_verifier = None
        #: Optional fault-injection plane (see :mod:`repro.netsim.faults`).
        #: ``None`` — the default — means a perfectly reliable message
        #: plane: the hot path pays one attribute check and nothing else,
        #: so fault-free runs are byte-identical to a build without the
        #: fault plane at all.
        self.fault_plan: Optional[FaultPlan] = None
        self.stats = MessageStats()
        #: The deployment's one messaging transport: Pastry's own RPCs and,
        #: through ``PastNetwork.transport``, every PAST route and RPC go
        #: through it rather than touching stats/fault plumbing.
        self.transport = SimTransport(None, self)
        #: When not None, :meth:`route` appends a :class:`DeliveryRecord`
        #: per message.  Off by default: routing itself must never read
        #: it, and the oracle lookup it triggers costs a bisect per route.
        self.delivery_log: Optional[List[DeliveryRecord]] = None
        self._nodes: Dict[int, PastryNode] = {}
        self._failed: Dict[int, PastryNode] = {}
        self._coords: Dict[int, object] = {}
        #: Every placed coordinate's id, bucketed by a ``side x side`` grid
        #: over the unit torus (see :meth:`_nearest_by_proximity`).
        self._grid: List[List[int]] = [[]]
        self._grid_side = 1
        self._sorted_ids: List[int] = []
        #: Called with the nodeId after every :meth:`recover_node`, so
        #: failure detectors can re-watch recovered nodes automatically.
        self._recovery_listeners: List[Callable[[int], None]] = []

    def add_recovery_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callback fired (in order) after each node recovery."""
        self._recovery_listeners.append(listener)

    # ------------------------------------------------------------- registry

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_ids(self) -> List[int]:
        return list(self._sorted_ids)

    def nodes(self) -> List[PastryNode]:
        return [self._nodes[i] for i in self._sorted_ids]

    def is_live(self, node_id: int) -> bool:
        return node_id in self._nodes

    def get_live(self, node_id: int) -> Optional[PastryNode]:
        return self._nodes.get(node_id)

    def node(self, node_id: int) -> PastryNode:
        """The live node with the given id; raises KeyError if absent."""
        return self._nodes[node_id]

    def distance(self, a: int, b: int) -> float:
        """Proximity metric between two nodes (live, failed or joining)."""
        try:
            return self.topology.distance(self._coords[a], self._coords[b])
        except KeyError:
            raise KeyError("unknown node in distance query") from None

    def random_node(self, rng: Optional[random.Random] = None) -> PastryNode:
        r = rng if rng is not None else self.rng
        return self._nodes[r.choice(self._sorted_ids)]

    def _register(self, node: PastryNode) -> None:
        self._nodes[node.node_id] = node
        bisect.insort(self._sorted_ids, node.node_id)

    def _deregister(self, node_id: int) -> None:
        del self._nodes[node_id]
        idx = bisect.bisect_left(self._sorted_ids, node_id)
        if idx < len(self._sorted_ids) and self._sorted_ids[idx] == node_id:
            del self._sorted_ids[idx]

    # --------------------------------------------------------- test oracles

    def numerically_closest_live(self, key: int) -> Optional[int]:
        """Global oracle: the live node numerically closest to ``key``.

        Used by tests and invariant checks only — routing never calls this.
        """
        if not self._sorted_ids:
            return None
        ids = self._sorted_ids
        idx = bisect.bisect_left(ids, key)
        candidates = {ids[idx % len(ids)], ids[(idx - 1) % len(ids)]}
        return idspace.closest_of(candidates, key)

    def k_closest_live(self, key: int, k: int) -> List[int]:
        """Global oracle: the k live nodes numerically closest to ``key``."""
        if not self._sorted_ids:
            return []
        ids = self._sorted_ids
        idx = bisect.bisect_left(ids, key)
        n = len(ids)
        window = min(n, 2 * k + 2)
        candidates = {ids[(idx + off) % n] for off in range(-window, window)}
        return idspace.sort_by_distance(candidates, key)[:k]

    # ----------------------------------------------------------------- join

    def create_first_node(self, node_id: Optional[int] = None, cluster=None) -> PastryNode:
        """Bootstrap the overlay with its first node."""
        if self._nodes or self._failed:
            raise RuntimeError("overlay already has nodes; use join()")
        return self._make_node(node_id, cluster=cluster, register=True)

    def _make_node(self, node_id, cluster=None, register=True) -> PastryNode:
        if node_id is None:
            node_id = self.rng.getrandbits(idspace.ID_BITS)
        if node_id in self._coords:
            raise ValueError("duplicate nodeId; the new node must obtain a new nodeId")
        coord = self.topology.place(self.rng, cluster=cluster)
        node = PastryNode(node_id, self, coord, b=self.b, l=self.l)
        self._coords[node_id] = coord
        # The grid's only writer.  About one id per cell: re-gridded
        # whenever the placed count reaches a power of two.
        placed = len(self._coords)
        if placed & (placed - 1) == 0:
            side = self._grid_side = math.isqrt(placed)
            self._grid = [[] for _ in range(side * side)]
            for placed_id, placed_coord in self._coords.items():
                self._grid[self._cell(placed_coord)].append(placed_id)
        else:
            self._grid[self._cell(coord)].append(node_id)
        if register:
            self._register(node)
        return node

    def join(self, node_id: Optional[int] = None, cluster=None) -> PastryNode:
        """Build a node and add it via Pastry's join protocol (:meth:`join_node`)."""
        return self.join_node(self._make_node(node_id, cluster=cluster, register=False))

    def join_node(self, node: PastryNode) -> PastryNode:
        """Run Pastry's join protocol (§2.1) for a node built by ``_make_node``.

        The newcomer X contacts a proximity-nearby node A and asks it to
        route a join message to X's own id.  X initializes its leaf set
        from the terminal node Z, its neighborhood set from A, and routing
        rows from the nodes encountered along the route, then announces
        itself to every node that appears in its state.  On an empty
        overlay the node is registered alone.  PAST admits its nodes
        through this method too, so the storage layer sees one join.
        """
        if not self._nodes:
            self._register(node)
            return node
        seed = self._nearest_by_proximity(node.coord)

        # Route a join message from the seed towards the new node's id,
        # recording the nodes encountered.
        result = self.route(seed.node_id, node.node_id, message=None)
        # Confirm-reread: route() suspends at every hop, so a node
        # recorded on the path may have failed before its state is read;
        # keep only the ones still registered.
        path_nodes = [self._nodes[i] for i in result.path if i in self._nodes]
        if not path_nodes:
            path_nodes = [seed]
        # Leaf set from Z, neighborhood from A, routing rows from the
        # path (the newcomer pulls its own state; see initialize_from_join).
        node.initialize_from_join(seed, path_nodes)

        # Announce arrival to every node that appears in the new node's
        # state, restoring Pastry's invariants (O(log N) messages).
        # Sorted: learn() mutates peer state, so the announcement order
        # must not depend on set iteration order.
        contacts = set(node.leafset.sorted_members())
        contacts.update(node.routing_table.entries())
        contacts.update(node.neighborhood)
        contacts.update(p.node_id for p in path_nodes)

        self._register(node)
        for contact_id in sorted(contacts):
            if contact_id not in self._nodes:
                # Confirm-reread: learn() suspends at its own RPCs, so a
                # contact collected above may fail before its turn comes.
                continue
            self._nodes[contact_id].learn(node.node_id)
            self.stats.record_rpc()
        return node

    def _cell(self, coord) -> int:
        side = self._grid_side
        return int(coord.x * side) % side * side + int(coord.y * side) % side

    def _nearest_by_proximity(self, coord) -> PastryNode:
        """Emulator service standing in for 'a nearby node A' (expanding-ring
        discovery in a deployment).

        The live node nearest to ``coord``, ties to the first in ``_nodes``
        order: ``min(self._nodes.values(), key=distance to coord)``, found
        by visiting the grid in square rings of cells around ``coord``'s
        own.  A point in ring ``r`` is at least ``r - 1`` cell sides away,
        so the walk stops once the best distance is strictly below that
        (less a rounding margin, so no equal or nearer point is skipped).
        """
        side, grid, nodes = self._grid_side, self._grid, self._nodes
        distance = self.topology.distance
        cx, cy = int(coord.x * side), int(coord.y * side)
        best, tied = math.inf, []
        r = 0
        while 2 * r - 1 < side and not best < (r - 1) / side - 1e-12:
            # Ring r: the cells r steps away on either axis.  On a grid of
            # side 2r the offsets -r and +r wrap onto the same cell.
            offsets = range(-r, r + 1) if 2 * r < side else range(-r, r)
            edges = (-r, r) if 2 * r < side else (-r,)
            for dx in offsets:
                column = (cx + dx) % side * side
                for dy in offsets if abs(dx) == r else edges:
                    for node_id in grid[column + (cy + dy) % side]:
                        node = nodes.get(node_id)
                        if node is None:
                            continue
                        d = distance(coord, node.coord)
                        if d < best:
                            best, tied = d, [node]
                        elif d == best:
                            tied.append(node)
            r += 1
        if len(tied) > 1:
            return next(n for n in nodes.values() if n in tied)
        return tied[0]

    def build(self, n: int, clusters: Optional[List] = None) -> List[PastryNode]:
        """Grow the overlay to ``n`` nodes via repeated joins."""
        out = []
        for i in range(n):
            cluster = clusters[i % len(clusters)] if clusters else None
            out.append(self.join(cluster=cluster))
        return out

    # ---------------------------------------------------------- maintenance

    def run_table_maintenance(self, rounds: int = 1) -> int:
        """Periodic routing-table maintenance (the Pastry protocol).

        Each round, every node picks a random populated routing-table row
        and asks a random live entry of that row for *its* version of the
        row, offering each received entry to its own table (the proximity
        rule keeps whichever candidate is nearer).  This is how deployed
        Pastry keeps table quality high as the network evolves; it only
        improves locality — correctness never depends on it.

        Returns the number of table slots improved.
        """
        improved = 0
        for _ in range(rounds):
            for node in list(self._nodes.values()):
                populated = [
                    r
                    for r in range(node.routing_table.rows)
                    if any(e is not None for e in node.routing_table.row(r))
                ]
                if not populated:
                    continue
                row_idx = self.rng.choice(populated)
                entries = [
                    e for e in node.routing_table.row(row_idx)
                    if e is not None and self.is_live(e)
                ]
                if not entries:
                    continue
                donor = self._nodes[self.rng.choice(entries)]
                self.stats.record_rpc(self.distance(node.node_id, donor.node_id))
                for candidate in donor.routing_table.row(row_idx):
                    if candidate is not None and self.is_live(candidate):
                        if node.routing_table.consider(candidate):
                            improved += 1
                # Neighborhood sets are refreshed the same way.
                for neighbor in donor.neighborhood:
                    if self.is_live(neighbor):
                        node.consider_neighbor(neighbor)
        return improved

    # -------------------------------------------------------------- failure

    def fail_node(self, node_id: int) -> PastryNode:
        """Fail a node with immediate detection.

        Leaf-set members detect the silence of their keep-alive partner and
        repair their leaf sets; everyone else discovers the failure lazily
        when a routing attempt times out.
        """
        node = self.mark_failed(node_id)
        self.notify_failure(node_id)
        return node

    def mark_failed(self, node_id: int) -> PastryNode:
        """Phase 1 of a failure: the node goes silent.

        The node stops participating (routing treats it as dead on
        contact) but no keep-alive has expired yet, so no repair or
        maintenance runs.  The recovery-period experiments separate this
        from :meth:`notify_failure` to model the detection window T.
        """
        node = self._nodes.get(node_id)
        if node is None:
            raise KeyError(f"node {node_id} is not live")
        node._crash_witnesses = node.leafset.members()
        node.alive = False
        self._deregister(node_id)
        self._failed[node_id] = node
        return node

    def notify_failure(self, node_id: int) -> None:
        """Phase 2 of a failure: keep-alive timers expire at the witnesses.

        Each leaf-set member of the failed node (as of crash time) removes
        it, repairs its leaf set, and runs application maintenance.
        """
        node = self._failed.get(node_id)
        if node is None:
            return  # recovered before detection, or unknown
        witnesses = getattr(node, "_crash_witnesses", set())
        for witness_id in sorted(witnesses):
            witness = self._nodes.get(witness_id)
            if witness is not None:
                witness.handle_failure(node_id)
                self.stats.record_rpc()

    def recover_node(self, node_id: int) -> PastryNode:
        """Bring a previously failed node back online.

        A recovering node contacts the nodes in its last known leaf set,
        obtains their current leaf sets, updates its own and then notifies
        the members of its new leaf set of its presence.
        """
        node = self._failed.pop(node_id, None)
        if node is None:
            raise KeyError(f"node {node_id} is not failed")
        node.alive = True
        old_members = node.leafset.sorted_members()
        node.leafset = type(node.leafset)(node.node_id, self.l)
        known = set()
        for member_id in old_members:
            donor = self._nodes.get(member_id)
            if donor is not None:
                known.add(member_id)
                known.update(donor.leafset.sorted_members())
        node.leafset.add_all(filter(self.is_live, known))
        node.exchange_leafsets()
        self._register(node)
        for member_id in node.leafset.sorted_members():
            member = self._nodes.get(member_id)
            if member is not None:
                member.learn(node_id)
                self.stats.record_rpc()
        for listener in self._recovery_listeners:
            listener(node_id)
        return node

    # -------------------------------------------------------------- routing

    def route(
        self,
        origin_id: int,
        key: int,
        message=None,
        collect_distance: bool = False,
        _duplicate: bool = False,
    ) -> RouteResult:
        """Route ``message`` from ``origin_id`` towards ``key``.

        At each hop the local application's ``forward`` up-call runs and may
        intercept the message (PAST lookups stop at the first replica).  If
        never intercepted, the message is delivered at the live node
        numerically closest to ``key`` and its ``deliver`` up-call runs.

        When a :attr:`fault_plan` is installed, each hop additionally
        consults it: a lost hop terminates the route with ``lost=True``
        (the application never hears about the message again — the client
        must time out and retry, §2.3), injected delay accumulates in
        ``latency``, and a duplicated hop re-routes an extra copy of the
        message from the receiving node after the original completes
        (``_duplicate`` guards against copies spawning copies).
        """
        current = self._nodes.get(origin_id)
        if current is None:
            raise KeyError(f"origin {origin_id} is not a live node")
        result = RouteResult(path=[current.node_id], message=message)
        duplicate_from: List[int] = []
        while True:
            if (
                current.node_id in self.malicious
                and len(result.path) > 1
            ):
                # A malicious node along the path accepts the message but
                # does not correctly forward (or answer) it — the request
                # is silently lost and the client must retry (§2.3).
                result.terminus = None
                result.dropped = True
                break
            next_id = current.next_hop(
                key, rng=self.rng, randomize=self.randomize_routing
            )
            cont = current.app.forward(current, message, key, next_id)
            if not cont:
                result.terminus = current.node_id
                result.intercepted = True
                break
            if next_id is None:
                current.app.deliver(current, message, key)
                result.terminus = current.node_id
                break
            if len(result.path) > MAX_ROUTE_HOPS:
                raise RoutingError("routing loop detected")
            if collect_distance:
                result.distance += self.distance(current.node_id, next_id)
            if self.fault_plan is not None:
                tx = self.fault_plan.transmit(current.node_id, next_id)
                if tx.lost:
                    # The hop never arrives; the message is gone and no
                    # downstream up-call runs.
                    result.terminus = None
                    result.lost = True
                    break
                result.latency += tx.delay
                if tx.duplicate and not _duplicate:
                    duplicate_from.append(next_id)
            nxt = self._nodes.get(next_id)
            if nxt is None:
                # The liveness check in next_hop raced a crash: the chosen
                # hop died after being selected but before delivery.
                raise RoutingError("next hop vanished mid-route")
            result.path.append(next_id)
            current = nxt
        self.stats.record_route(result.hops, result.distance)
        if self.delivery_log is not None:
            self.delivery_log.append(
                DeliveryRecord(
                    key=key,
                    origin=origin_id,
                    terminus=result.terminus,
                    closest_live=self.numerically_closest_live(key),
                    hops=result.hops,
                    intercepted=result.intercepted,
                    dropped=result.dropped,
                    lost=result.lost,
                    duplicate=_duplicate,
                )
            )
        # Duplicated hops: the receiver got the message twice; the second
        # copy continues routing independently (exercising the idempotency
        # of forward/deliver up-calls).  Run after the original so the
        # original's outcome is never perturbed.
        for dup_origin in duplicate_from:
            if self._nodes.get(dup_origin) is not None:
                self.route(
                    dup_origin, key, message=message,
                    collect_distance=False, _duplicate=True,
                )
        return result

    def start_delivery_log(self) -> List[DeliveryRecord]:
        """Enable delivery-point recording; returns the (live) log list."""
        self.delivery_log = []
        return self.delivery_log
