"""Pastry leaf sets.

The leaf set of a node contains the ``l/2`` live nodes with numerically
closest *larger* nodeIds and the ``l/2`` live nodes with numerically closest
*smaller* nodeIds, relative to the node's own id, on the circular namespace.
It is the structure that terminates Pastry routing (the final hops of every
route go through leaf sets) and the scope within which PAST performs
replica diversion and replica maintenance.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional, Set, Tuple

from . import idspace

_SPACE = idspace.ID_SPACE


class LeafSet:
    """The leaf set of a single Pastry node.

    The whole state is one list of ids in ring order (ascending, wrapping
    at the end) that *contains the owner*: the slots after the owner are
    its clockwise successors nearest first, the slots before it its
    counterclockwise predecessors.  Every query is index arithmetic around
    the owner's slot or a bisect for the key; none sorts.

    One thing is remembered between calls: the arc :meth:`covers` tests
    against (``_arc``), asked for at every hop of every route and moved only
    by membership changes.  It is cleared where ``_ring`` changes — in
    :meth:`add`, :meth:`add_all` and ``_pop`` — and recomputed by the next
    :meth:`covers`, not in place: a join or a repair adds and removes
    members in bursts with no route in between, and paying for the arc on
    each of them cost more than it saved.

    Membership is trimmed *direction-blind*: a member stays while it is
    among the ``l/2`` nearest clockwise successors or the ``l/2`` nearest
    counterclockwise predecessors, each ranked over ALL members.  On the
    ring that is "whenever an insert makes ``l + 1`` members, drop the one
    at clockwise index ``l/2``" — the only member in neither ranking.  This
    guarantees a node never forgets a true ring-adjacent neighbour: in a
    clustered ring a node's clockwise successor can be
    counterclockwise-*nearer*, and a trim that first bucketed members by
    nearer direction would overflow that bucket and drop the successor —
    stranding keys at a node that cannot see its own successor (a real
    misrouting bug this rule fixed).

    The side *views* (:attr:`smaller`, :attr:`larger`, :meth:`extremes`,
    :meth:`is_full`) stay direction-faithful: a member belongs to the side
    it is genuinely nearer to (ties go clockwise), at most ``l/2`` per
    side.  Repair and fullness signals depend on this: were the smaller
    side padded with far successors merely because they are the
    ccw-nearest members known, a node that lost its predecessors would
    look "full", pick repair donors on the wrong arc, and never refill — a
    kept member may therefore appear in neither view (it is still
    routable via :meth:`members`).

    As long as no member has ever been trimmed, the leaf set contains
    every node it was told about and the node has global knowledge of the
    ring; once it overflows and drops a member that guarantee is gone for
    good (the dropped node's identity is forgotten), which :meth:`covers`
    must account for.

    The trim is *eager* (inside :meth:`add` and :meth:`add_all`).  That
    equals trimming a whole batch of adds at the next read — a dropped
    member only falls further back in both rankings as more arrive, which
    is what lets :meth:`add_all` merge a batch in one pass — unless a
    :meth:`remove` lands between an ``add`` and the next read: a batch
    trim would let the removal promote a member the eager trim has
    already forgotten.  Every caller reads (``in``, ``members()``,
    ``is_full()``) before it removes, so the order is load-bearing only
    for code that stops doing so.
    """

    __slots__ = ("owner_id", "l", "_ring", "_pos", "_antipode", "_ever_trimmed", "_arc")

    def __init__(self, owner_id: int, l: int):
        if l < 2 or l % 2 != 0:
            raise ValueError(f"leaf set size l must be a positive even number, got {l}")
        self.owner_id = owner_id
        self.l = l
        self._ring: List[int] = [owner_id]  # members and owner, ascending
        self._pos = 0  # the owner's index in _ring
        #: The farthest id that still counts as clockwise-nearer (ties go
        #: clockwise): members in the arc (owner, antipode] are "larger".
        self._antipode = (owner_id + _SPACE // 2) % _SPACE
        self._ever_trimmed = False
        #: What :meth:`covers` remembers: ``(low, span)``, a full turn for
        #: global knowledge, None once ``_ring`` has changed since.
        self._arc: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ views

    def _sides(self) -> Tuple[int, int]:
        """Sizes of the (smaller, larger) side views."""
        ring = self._ring
        n = len(ring)
        cw_nearer = (bisect_right(ring, self._antipode) - self._pos - 1) % n
        half = self.l // 2
        return min(half, n - 1 - cw_nearer), min(half, cw_nearer)

    @property
    def smaller(self) -> List[int]:
        """Members on the counterclockwise side, nearest first."""
        pos = self._pos
        return [self._ring[pos - i] for i in range(1, self._sides()[0] + 1)]

    @property
    def larger(self) -> List[int]:
        """Members on the clockwise side, nearest first."""
        base = self._pos - len(self._ring)  # negative index: wraps for free
        return [self._ring[base + i] for i in range(1, self._sides()[1] + 1)]

    def members(self) -> Set[int]:
        """All current leaf-set members (excluding the owner)."""
        return set(self.sorted_members())

    def sorted_members(self) -> Tuple[int, ...]:
        """Members ascending, as an immutable snapshot."""
        return tuple(self._ring[: self._pos] + self._ring[self._pos + 1 :])

    def sorted_members_with_owner(self) -> Tuple[int, ...]:
        """Members plus the owner, ascending (immutable snapshot)."""
        return tuple(self._ring)

    def __contains__(self, node_id: int) -> bool:
        ring = self._ring
        i = bisect_left(ring, node_id)
        return i < len(ring) and ring[i] == node_id and i != self._pos

    def __len__(self) -> int:
        return len(self._ring) - 1

    def is_full(self) -> bool:
        """Whether both sides hold their full complement of ``l/2`` nodes."""
        return self._sides() == (self.l // 2, self.l // 2)

    @property
    def ever_trimmed(self) -> bool:
        """Whether a member was ever dropped for side overflow.

        A leaf set that is not full *and* has trimmed is provably
        deficient: it once knew nodes it has since forgotten, so its arc
        may exclude live nodes it ought to know about.  Routing and
        failure repair use this to decide when a rebuild is warranted.
        """
        return self._ever_trimmed

    # ---------------------------------------------------------------- updates

    def add(self, node_id: int) -> None:
        """Consider ``node_id`` for membership (no-op for self/duplicates)."""
        ring = self._ring
        i = bisect_left(ring, node_id)
        if i < len(ring) and ring[i] == node_id:
            return
        ring.insert(i, node_id)
        self._arc = None
        if i <= self._pos:
            self._pos += 1
        if len(ring) > self.l + 1:
            self._pop((self._pos + 1 + self.l // 2) % len(ring))
            self._ever_trimmed = True

    def add_all(self, node_ids: Iterable[int]) -> None:
        """:meth:`add` each id in turn, in one pass.

        The union with the ring is sorted once and, past ``l + 1`` ids,
        cut to the owner's window (ring indices ``pos - l/2 .. pos + l/2``):
        what the eager trim leaves after any order of adds.
        """
        ring = self._ring
        merged = set(ring)
        merged.update(node_ids)
        n = len(merged)
        if n == len(ring):
            return
        merged = sorted(merged)
        pos = bisect_left(merged, self.owner_id)
        trimmed = n > self.l + 1
        if trimmed:
            half = self.l // 2
            lo, hi = pos - half, pos + half + 1
            if lo < 0:  # the window wraps below index 0
                merged = merged[:hi] + merged[lo:]
            elif hi > n:  # ... or past the end
                merged = merged[: hi - n] + merged[lo:]
                pos = hi - n + half
            else:
                merged = merged[lo:hi]
                pos = half
        if merged != ring or trimmed and not self._ever_trimmed:
            self._arc = None
        self._ring = merged
        self._pos = pos
        self._ever_trimmed = self._ever_trimmed or trimmed

    def remove(self, node_id: int) -> bool:
        """Remove a (failed) node.  Returns True if it was a member."""
        ring = self._ring
        i = bisect_left(ring, node_id)
        if i == len(ring) or ring[i] != node_id or i == self._pos:
            return False
        self._pop(i)
        return True

    def _pop(self, index: int) -> None:
        del self._ring[index]
        self._arc = None
        if index < self._pos:
            self._pos -= 1

    # ---------------------------------------------------------------- queries

    def extremes(self) -> tuple:
        """The farthest member on each side ``(smallest_side, largest_side)``.

        These are the two "most distant members" a PAST node consults when
        its own leaf set cannot absorb a replica (§3.5).  Either element may
        be ``None`` when that side is empty.
        """
        n_smaller, n_larger = self._sides()
        low = self._ring[self._pos - n_smaller] if n_smaller else None
        high = self._ring[self._pos + n_larger - len(self._ring)] if n_larger else None
        return low, high

    def covers(self, key: int) -> bool:
        """Whether ``key`` falls within the arc spanned by this leaf set.

        Pastry's routing rule: if the key is between the farthest-smaller
        and farthest-larger leaf-set members (passing through the owner),
        the message is forwarded directly to the numerically closest leaf
        (or delivered, if the owner is closest).  A non-full leaf set that
        has never trimmed a member holds every node it was ever told
        about — global knowledge of a small ring — which also counts as
        coverage.

        A non-full leaf set that *has* trimmed is a different story: when
        more than ``l/2`` nodes sit on one side of the ring, that side
        overflows (forgetting the far ones) while the other side can stay
        empty.  Claiming coverage then would make routing deliver at a
        node that merely cannot see anything closer, stranding keys away
        from their numerically closest node — so such a leaf set only
        covers its actual arc, with an empty side's extreme standing at
        the owner.
        """
        arc = self._arc
        if arc is None:
            n_smaller, n_larger = self._sides()
            half = self.l // 2
            if not self._ever_trimmed and not n_smaller == half == n_larger:
                arc = (0, _SPACE)  # global knowledge: no key is outside a full turn
            else:
                ring = self._ring
                low = ring[self._pos - n_smaller]
                high = ring[self._pos + n_larger - len(ring)]
                # Arc from `low` clockwise through the owner to `high`.  The
                # two half-arcs are summed without reducing modulo the ring
                # size; the sides are direction-faithful (ccw strictly under
                # half the ring, cw at most half), so the sum cannot reach a
                # full turn.
                arc = (low, (self.owner_id - low) % _SPACE + (high - self.owner_id) % _SPACE)
            self._arc = arc
        return (key - arc[0]) % _SPACE <= arc[1]

    def closest_to(self, key: int, include_self: bool = True) -> Optional[int]:
        """Numerically closest node to ``key`` among members (and owner)."""
        if not include_self:
            found = self.closest_nodes(key, 1, include_self=False)
            return found[0] if found else None
        # The nearest id by ring distance is the key's predecessor or its
        # successor in ring order (one and the same on a one-node ring);
        # ties on distance go to the smaller id, as in closest_nodes.
        ring = self._ring
        i = bisect_left(ring, key)
        below, above = ring[i - 1], ring[i - len(ring)]
        d_below, d_above = (key - below) % _SPACE, (above - key) % _SPACE
        if d_below < d_above or (d_below == d_above and below < above):
            return below
        return above

    def closest_nodes(self, key: int, k: int, include_self: bool = True) -> List[int]:
        """The ``k`` members (optionally incl. owner) numerically closest to ``key``.

        This is how a PAST node determines the replica set for a fileId it
        coordinates: the k nodes with nodeIds closest to the fileId, all of
        which must appear in its leaf set (PAST requires ``k <= l/2 + 1``).
        Ties on distance go to the smaller id.
        """
        # Every join and failure calls this once per stored file per
        # witness, so it walks instead of sorting: two walkers leave the
        # key's bisect point in opposite directions (negative indices wrap
        # for free).  The untaken ids always form one arc between them,
        # whose nearest id is whichever walker has the shorter way back to
        # the key: O(k + log l).
        ring = self._ring
        skip = None if include_self else self.owner_id
        up = bisect_left(ring, key) - len(ring)  # first id >= key
        down = up + len(ring) - 1  # last id < key
        out: List[int] = []
        while len(out) < k and up <= down:
            below = ring[down]
            above = ring[up]
            d_below = (key - below) % _SPACE
            d_above = (above - key) % _SPACE
            if d_below < d_above or (d_below == d_above and below < above):
                pick = below
                down -= 1
            else:
                pick = above
                up += 1
            if pick != skip:
                out.append(pick)
        return out

    def shared_arc(self, node_id: int, k: int) -> Tuple[int, int]:
        """The keys whose ``closest_nodes(key, k)`` can hold ``node_id`` and the owner.

        Returned as ``(low, span)``: the keys with ``(key - low - 1) % ID_SPACE
        < span``.  A k-set is ``k`` consecutive ring ids ``lo .. lo + k - 1``,
        picked only by keys in ``(ring[lo - 1], ring[lo + k]]``; so with
        ``node_id`` at index ``j``, ``d < k`` slots clockwise of the owner's
        ``pos``, the arc is ``(ring[j - k], ring[pos + k]]`` (mirrored
        counterclockwise); it is empty when neither way is under ``k`` slots
        or ``node_id`` is no member, a full turn on ``2k`` or fewer ids.
        """
        ring, pos = self._ring, self._pos
        n = len(ring)
        j = bisect_left(ring, node_id)
        if j == n or ring[j] != node_id or j == pos:
            return 0, 0
        if 2 * k >= n:
            return 0, _SPACE
        d = (j - pos) % n  # slots clockwise from the owner to the node
        if k <= d <= n - k:
            return 0, 0
        low = ring[j - k] if d < k else ring[pos - k]
        high = ring[(pos + k) % n] if d < k else ring[(j + k) % n]
        return low, (high - low) % _SPACE

    def owner_rank(self, key: int) -> int:
        """The owner's index in ``closest_nodes(key, l + 1)``, without the sort.

        With the owner at ring distance ``d`` from the key, the ids that
        precede it are those strictly inside the arc ``(key - d, key + d)``
        plus the id at the arc's other end — the owner's mirror image, at
        distance ``d`` too — when that is a member and the smaller of the
        two.  The owner sits on one end of that arc, so its own slot and one
        bisect for the mirror count what lies between.
        """
        ring, owner = self._ring, self.owner_id
        d = (owner - key) % _SPACE
        if d == 0:
            return 0
        if d <= _SPACE - d:  # the owner is clockwise of the key
            mirror = (key - d) % _SPACE
            i = bisect_right(ring, mirror)
            return (self._pos - i) % len(ring) + (ring[i - 1] == mirror < owner)
        mirror = (2 * key - owner) % _SPACE
        i = bisect_left(ring, mirror)
        return (i - self._pos - 1) % len(ring) + (ring[i - len(ring)] == mirror < owner)

    def state_rows(self) -> dict:
        """Debug/illustration view used by Figure-1 style state dumps."""
        return {"smaller": self.smaller, "larger": self.larger}
