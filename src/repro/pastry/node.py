"""A single Pastry node: routing state and the next-hop decision.

Each node maintains three pieces of state (Figure 1 of the paper):

* a *routing table* with ``log_{2^b} N`` populated levels of ``2^b - 1``
  proximity-chosen entries each (:mod:`repro.pastry.routingtable`),
* a *leaf set* of the ``l`` numerically closest nodes
  (:mod:`repro.pastry.leafset`), and
* a *neighborhood set* of the ``l`` nodes closest under the network
  proximity metric, used during node addition/recovery.

The node also exposes an application interface mirroring Pastry's: an
application object (PAST's storage layer) receives ``forward``/``deliver``
up-calls during routing and membership-change notifications, which is how
PAST integrates storage management with routing.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from typing import TYPE_CHECKING, List, Optional, Set

from . import idspace
from .leafset import LeafSet
from .routingtable import RoutingTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .network import PastryNetwork


class PastryApplication:
    """Up-call interface a layered application (e.g. PAST) may implement.

    All hooks have default no-op implementations so applications override
    only what they need.
    """

    def deliver(self, node: "PastryNode", message, key: int) -> None:
        """Message reached the node numerically closest to ``key``."""

    def forward(self, node: "PastryNode", message, key: int, next_id: Optional[int]) -> bool:
        """Message is transiting ``node``.  Return False to stop routing here.

        PAST uses this to intercept lookups at the first node that holds a
        replica or cached copy, and to intercept inserts at the first node
        among the k numerically closest to the fileId.
        """
        return True

    def on_node_joined(self, node: "PastryNode", new_id: int) -> None:
        """A new node entered ``node``'s leaf set."""

    def on_node_failed(self, node: "PastryNode", failed_id: int) -> None:
        """A leaf-set member of ``node`` was declared failed."""


class PastryNode:
    """One overlay node.

    Parameters mirror the paper: ``b`` controls routing-table branching and
    ``l`` the leaf-set/neighborhood-set size.
    """

    # _crash_witnesses is assigned by PastryNetwork.mark_failed (and read
    # back with getattr + default), not by __init__ — it still needs a slot.
    __slots__ = (
        "node_id", "network", "coord", "b", "l", "alive", "leafset",
        "routing_table", "_neighborhood", "_neighbor_d", "app", "_crash_witnesses",
    )

    def __init__(
        self,
        node_id: int,
        network: "PastryNetwork",
        coord,
        b: int = 4,
        l: int = 32,
    ):
        if not 0 <= node_id < idspace.ID_SPACE:
            raise ValueError("node_id out of range")
        self.node_id = node_id
        self.network = network
        self.coord = coord
        self.b = b
        self.l = l
        self.alive = True
        self.leafset = LeafSet(node_id, l)
        self.routing_table = RoutingTable(node_id, b, self._proximity)
        self._neighborhood: List[int] = []  # sorted by proximity, nearest first
        self._neighbor_d = array("d")  # each member's proximity, same order
        self.app: PastryApplication = PastryApplication()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PastryNode({idspace.format_id(self.node_id, self.b, 8)}...)"

    # ------------------------------------------------------------- proximity

    def _proximity(self, other_id: int) -> float:
        return self.network.distance(self.node_id, other_id)

    # ----------------------------------------------------------- membership

    @property
    def neighborhood(self) -> List[int]:
        """The neighborhood set: the ``l`` proximity-closest known nodes."""
        return list(self._neighborhood)

    def consider_neighbor(self, node_id: int) -> None:
        """Offer a node for the neighborhood set (kept sorted by proximity).

        An offer measures one proximity: the set keeps each member's
        distance beside it, which stays true because a node's coordinate
        is written once.  Equal distances keep arrival order (the newcomer
        goes after every member at its distance), so a full set refuses an
        offer that is not strictly nearer than its farthest member.
        """
        if node_id == self.node_id or node_id in self._neighborhood:
            return
        d = self._proximity(node_id)
        if len(self._neighborhood) >= self.l and d >= self._neighbor_d[-1]:
            return
        i = bisect_right(self._neighbor_d, d)
        self._neighborhood.insert(i, node_id)
        self._neighbor_d.insert(i, d)
        del self._neighborhood[self.l:]
        del self._neighbor_d[self.l:]

    def learn(self, node_id: int) -> None:
        """Incorporate knowledge of a live node into all routing state.

        When the network enforces signed identities, an id whose
        nodeId-to-address binding does not verify is refused — a malicious
        announcer cannot forge routing entries (§2.3).
        """
        if node_id == self.node_id:
            return
        verifier = self.network.identity_verifier
        if verifier is not None and not verifier(node_id):
            return
        before = node_id in self.leafset
        self.leafset.add(node_id)
        self.routing_table.consider(node_id)
        self.consider_neighbor(node_id)
        if not before and node_id in self.leafset:
            self.app.on_node_joined(self, node_id)

    def forget(self, node_id: int) -> None:
        """Purge a failed node from all routing state (no repair)."""
        self.leafset.remove(node_id)
        self.routing_table.remove(node_id)
        if node_id in self._neighborhood:
            i = self._neighborhood.index(node_id)
            del self._neighborhood[i]
            del self._neighbor_d[i]

    def handle_failure(self, failed_id: int) -> None:
        """React to the failure of a leaf-set member.

        The failed node is removed and the leaf set is repaired by asking
        the farthest live member on the failed node's side for *its* leaf
        set — the overlap of adjacent leaf sets makes this update trivial,
        as the paper notes.  The application is then notified so PAST can
        restore its replica invariant.
        """
        was_member = failed_id in self.leafset
        self.forget(failed_id)
        if was_member:
            self._repair_leafset()
            self.app.on_node_failed(self, failed_id)

    def _repair_leafset(self) -> None:
        """Refill the leaf set from the farthest live member on each side.

        When the extremes' donations leave the set short of ``l`` members
        while it has trimmed in the past, the single-donor pull was not
        enough (the donors' own sets can be stale after churn shrinks the
        ring) — walk the membership to a fixpoint
        (``_complete_deficient_leafset``), so the witness ends the repair
        with every live node it can transitively reach.
        """
        pulled: Set[int] = set()
        for donor_id in [d for d in self.leafset.extremes() if d is not None]:
            donor = self.network.get_live(donor_id)
            if donor is not None:
                pulled.update(donor.leafset.sorted_members_with_owner())
        # Ids already held are no-ops for add_all, so only the rest need a
        # liveness check.
        pulled.difference_update(self.leafset.sorted_members_with_owner())
        self.leafset.add_all(filter(self.network.is_live, pulled))
        self._complete_deficient_leafset()

    def exchange_leafsets(self) -> int:
        """Pull the leaf sets of current members until ours stops changing.

        One pull from the numerically closest node is *not* always enough
        to complete a leaf set: when more than ``l/2`` nodes cluster on
        one arc of the ring, every node near the cluster's edge has
        trimmed the far edge from its own leaf set, so a node refilled
        from a single donor can be blind to live nodes that belong in its
        set.  Adjacent leaf sets overlap, so walking the membership to a
        fixpoint recovers them; each round either brings a strictly
        nearer node onto a side or terminates, so the loop converges.

        Returns the number of leaf-set pull RPCs issued.
        """
        pulls = 0
        for _ in range(self.l):
            before = self.leafset.sorted_members()
            pulled: Set[int] = set()
            for donor_id in before:
                donor = self.network.get_live(donor_id)
                if donor is None:
                    continue
                pulls += 1
                _, donor_members = self.network.transport.send(
                    self.node_id, donor_id, donor.leafset.sorted_members,
                    reliable=True,
                )
                pulled.update(donor_members)
            # Confirm-reread: every pull above suspends, so what the round
            # taught is judged against the leaf set (and liveness) as they
            # stand after the last of them, then merged in one pass.
            if fresh := pulled.difference(self.leafset.sorted_members_with_owner()):
                self.leafset.add_all(filter(self.network.is_live, fresh))
            if self.leafset.sorted_members() == before:
                break
        return pulls

    def initialize_from_join(
        self, seed: "PastryNode", path_nodes: List["PastryNode"]
    ) -> None:
        """Seed this newcomer's state from its join route (§2.1).

        ``seed`` is A, the proximity-nearby contact that routed the join
        message; ``path_nodes`` are the nodes the message traversed,
        ending at Z, the node numerically closest to this one.  Leaf set
        from Z, neighborhood set from A, routing rows from every node
        along the path.  Reads only: no RPC, so nothing here suspends.
        A leaf set Z cannot complete is completed later, where a
        deficiency shows (``_repair_leafset`` and ``next_hop``).
        """
        terminus = path_nodes[-1]
        self.leafset.add(terminus.node_id)
        self.leafset.add_all(terminus.leafset.sorted_members())
        # Neighborhood set from A (the proximity-nearby contact).
        self.consider_neighbor(seed.node_id)
        for n_id in seed.neighborhood:
            self.consider_neighbor(n_id)
        # Routing rows from the nodes along the path; each shares an
        # increasingly long id prefix with the newcomer.
        for hop in path_nodes:
            self.routing_table.consider(hop.node_id)
            depth = idspace.shared_prefix_length(hop.node_id, self.node_id, self.b)
            for row in range(min(depth + 1, self.routing_table.rows)):
                self.routing_table.install_row(row, hop.routing_table.row(row))
        for member in self.leafset.sorted_members():
            self.routing_table.consider(member)

    # -------------------------------------------------------------- routing

    def next_hop(
        self, key: int, rng: Optional[random.Random] = None, randomize: bool = False
    ) -> Optional[int]:
        """Pastry's next-hop rule.  ``None`` means *deliver here*.

        1. If ``key`` falls within the leaf set's span, forward directly to
           the numerically closest leaf (or deliver if that is us).
        2. Otherwise use the routing-table entry that extends the shared
           prefix by at least one digit.
        3. If that slot is empty (or its node failed), fall back to any
           known node whose prefix match is at least as long and which is
           numerically strictly closer to the key — the "rare case".

        With ``randomize`` (the security mechanism of §2.3) the choice
        among valid candidates is randomized, heavily biased towards the
        best candidate, while preserving loop freedom: every forwarding
        target must be strictly numerically closer to the key.
        """
        if key == self.node_id:
            return None

        if self.leafset.covers(key):
            closest = self.leafset.closest_to(key, include_self=True)
            if closest == self.node_id or closest is None:
                return None
            if randomize and rng is not None and rng.random() < 0.15:
                # Randomized routing applies to the leaf-set hop too: any
                # member strictly closer to the key keeps the route
                # loop-free, and varying the final hops is what lets a
                # retry go around a malicious node parked next to the key.
                # Sorted: the index drawn from rng below must select the
                # same member regardless of set iteration order.
                alternates = [
                    m
                    for m in self.leafset.sorted_members()
                    if idspace.is_strictly_closer(m, self.node_id, key)
                    and self.network.is_live(m)
                ]
                if alternates:
                    return alternates[int(rng.random() * len(alternates))]
            if self.network.is_live(closest):
                return closest
            # Closest leaf died and we have not been told yet: treat it as a
            # detected failure and retry.
            self.handle_failure(closest)
            return self.next_hop(key, rng, randomize)

        row = idspace.shared_prefix_length(self.node_id, key, self.b)
        entry = self.routing_table.lookup(key)
        if entry is not None and not self.network.is_live(entry):
            # Routing-table entries are repaired lazily, on first use after
            # the failure: drop the dead entry and ask row peers for a
            # replacement.
            self.routing_table.remove(entry)
            entry = self.repair_table_entry(row, idspace.digit(key, row, self.b))
        if entry is not None and not idspace.is_strictly_closer(entry, self.node_id, key):
            # Near the namespace wrap a longer shared prefix does not imply
            # a shorter ring distance; forwarding there could loop.  Every
            # hop must make strict numerical progress towards the key.
            entry = None

        if entry is not None and not randomize:
            return entry

        candidates = self._rare_case_candidates(key, row)
        if entry is not None:
            candidates.add(entry)
        if not candidates:
            # About to deliver here without leaf-set coverage.  If the
            # leaf set is provably deficient (it trimmed members in a
            # bigger ring and churn has since shrunk it below l), the
            # "no strictly closer node known" conclusion may only reflect
            # lost knowledge — rebuild to a fixpoint and retry once
            # before accepting delivery.
            if self._complete_deficient_leafset():
                return self.next_hop(key, rng, randomize)
            return None
        best = min(candidates, key=lambda c: (idspace.ring_distance(c, key), c))
        if randomize and rng is not None and len(candidates) > 1:
            # "The probability distribution is heavily biased towards the
            # best choice to ensure low average route delay" (§2.3): take
            # the best hop ~85% of the time, otherwise one of the next-best
            # alternatives, so retries explore without ballooning routes.
            if rng.random() < 0.15:
                others = sorted(
                    candidates - {best},
                    key=lambda c: (idspace.ring_distance(c, key), c),
                )
                return others[min(len(others) - 1, int(rng.random() * 2))]
        return best

    def _complete_deficient_leafset(self) -> bool:
        """Rebuild a trimmed-but-not-full leaf set; True if it changed.

        Returning False (unchanged) is what bounds the ``next_hop``
        retry: a second pass through the empty-candidate path finds the
        fixpoint already reached and delivers.
        """
        if self.leafset.is_full() or not self.leafset.ever_trimmed:
            return False
        before = self.leafset.sorted_members()
        self.exchange_leafsets()
        return self.leafset.sorted_members() != before

    def repair_table_entry(self, row: int, col: int) -> Optional[int]:
        """Lazily repair a dead routing-table slot (the Pastry protocol).

        Asks the live entries of the same row — which by construction
        share the same prefix depth and so may know a node with the
        needed prefix — for *their* (row, col) entry; if none helps, the
        search widens to entries in deeper rows.  Returns the repaired
        entry, or None when no candidate exists.
        """
        stale = self.routing_table.entry(row, col)
        if stale is not None and not self.network.is_live(stale):
            self.routing_table.remove(stale)
        for donor_row in range(row, self.routing_table.rows):
            found = None
            for donor_id in self.routing_table.row(donor_row):
                if donor_id is None or not self.network.is_live(donor_id):
                    continue
                donor = self.network.get_live(donor_id)
                _, candidate = self.network.transport.send(
                    self.node_id, donor_id, donor.routing_table.entry, row, col,
                    reliable=True,
                )
                if (
                    candidate is not None
                    and candidate != self.node_id
                    and self.network.is_live(candidate)
                ):
                    self.routing_table.consider(candidate)
                    found = self.routing_table.entry(row, col)
                    break
            if found is not None:
                return found
        return None

    def _rare_case_candidates(self, key: int, row: int) -> Set[int]:
        """Known live nodes usable when the routing-table slot is empty."""
        pool: Set[int] = set(self.leafset.sorted_members())
        pool.update(self.routing_table.entries())
        pool.update(self._neighborhood)
        out: Set[int] = set()
        for cand in pool:
            if not self.network.is_live(cand):
                continue
            if idspace.shared_prefix_length(cand, key, self.b) < row:
                continue
            if idspace.is_strictly_closer(cand, self.node_id, key):
                out.add(cand)
        return out

    # --------------------------------------------------------------- display

    def format_state(self, max_rows: Optional[int] = None) -> str:
        """Render this node's state in the style of the paper's Figure 1."""
        lines = [f"NodeId {idspace.format_id(self.node_id, self.b)}"]
        lines.append("Leaf set")
        smaller = " ".join(idspace.format_id(i, self.b) for i in self.leafset.smaller)
        larger = " ".join(idspace.format_id(i, self.b) for i in self.leafset.larger)
        lines.append(f"  SMALLER: {smaller}")
        lines.append(f"  LARGER:  {larger}")
        lines.append("Routing table")
        rows = self.routing_table.rows if max_rows is None else max_rows
        for r in range(rows):
            row_entries = self.routing_table.row(r)
            cells = []
            for c, e in enumerate(row_entries):
                if c == idspace.digit(self.node_id, r, self.b):
                    cells.append("[self]")
                elif e is not None:
                    cells.append(idspace.format_id(e, self.b))
            if cells:
                lines.append(f"  level {r}: " + " ".join(cells))
        lines.append("Neighborhood set")
        lines.append("  " + " ".join(idspace.format_id(i, self.b) for i in self._neighborhood))
        return "\n".join(lines)
