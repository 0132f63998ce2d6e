"""Pastry routing tables.

A routing table is organized into ``ceil(log_{2^b} N)`` populated levels
with ``2^b - 1`` entries each.  The entries at level ``n`` refer to nodes
whose nodeId shares the owner's nodeId in the first ``n`` digits but whose
``n+1``-th digit differs.  Each entry points to one of potentially many
qualifying nodes; Pastry picks one that is *close* to the owner under the
network proximity metric, which is what gives routes their locality
properties.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator, List, Optional, Sequence

from . import idspace

ProximityFn = Callable[[int], float]


@functools.lru_cache(maxsize=None)
def _empty_row(cols: int) -> tuple:
    return (None,) * cols


class RoutingTable:
    """Prefix routing table for one Pastry node.

    Parameters
    ----------
    owner_id:
        The owning node's nodeId.
    b:
        Digit width in bits (``2**b``-way branching per level).
    proximity:
        Callable mapping a candidate nodeId to its network distance from
        the owner.  Used to prefer nearby nodes when several candidates
        qualify for the same slot.
    """

    __slots__ = (
        "owner_id", "b", "rows", "cols", "_proximity", "_entries",
        "_own_digits",
    )

    def __init__(self, owner_id: int, b: int, proximity: ProximityFn):
        self.owner_id = owner_id
        self.b = b
        self.rows = idspace.num_digits(b)
        self.cols = 1 << b
        self._proximity = proximity
        # Only about log_{2^b} N rows ever fill: an unfilled row is the one
        # shared all-None tuple, and ``consider`` gives a row its own list
        # at its first entry.
        self._entries: List[Sequence[Optional[int]]] = [_empty_row(self.cols)] * self.rows
        self._own_digits = idspace.digits(owner_id, b)

    # ---------------------------------------------------------------- lookup

    def slot_for(self, node_id: int) -> Optional[tuple]:
        """The (row, col) slot a given nodeId belongs to, or None for self."""
        if node_id == self.owner_id:
            return None
        row = idspace.shared_prefix_length(self.owner_id, node_id, self.b)
        col = idspace.digit(node_id, row, self.b)
        return row, col

    def entry(self, row: int, col: int) -> Optional[int]:
        """The nodeId stored at (row, col), or None if the slot is empty."""
        return self._entries[row][col]

    def lookup(self, key: int) -> Optional[int]:
        """The routing-table next hop for ``key``.

        Returns the entry whose nodeId shares a prefix with ``key`` at least
        one digit longer than the owner's shared prefix, or ``None`` if the
        corresponding slot is empty.
        """
        row = idspace.shared_prefix_length(self.owner_id, key, self.b)
        if row >= self.rows:
            return None  # key equals owner id
        col = idspace.digit(key, row, self.b)
        return self._entries[row][col]

    def row(self, index: int) -> List[Optional[int]]:
        """A copy of one routing-table row (used during node join)."""
        return list(self._entries[index])

    def entries(self) -> Iterator[int]:
        """Iterate over all non-empty entries."""
        for r in self._entries:
            for e in r:
                if e is not None:
                    yield e

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    # ---------------------------------------------------------------- update

    def consider(self, node_id: int) -> bool:
        """Offer a candidate node for inclusion.

        The candidate fills its slot if empty, or replaces the occupant if
        it is strictly closer under the proximity metric (Pastry's locality
        heuristic).  Returns True if the table changed.
        """
        slot = self.slot_for(node_id)
        if slot is None:
            return False
        row, col = slot
        if col == self._own_digits[row]:
            # The slot matching the owner's own digit is never populated.
            return False
        entries = self._entries[row]
        current = entries[col]
        if current == node_id:
            return False
        if current is None or self._proximity(node_id) < self._proximity(current):
            if type(entries) is tuple:
                entries = self._entries[row] = list(entries)
            entries[col] = node_id
            return True
        return False

    def remove(self, node_id: int) -> bool:
        """Remove a (failed) node from the table.  Returns True if present."""
        slot = self.slot_for(node_id)
        if slot is None:
            return False
        row, col = slot
        if self._entries[row][col] == node_id:
            self._entries[row][col] = None
            return True
        return False

    def install_row(self, index: int, row_entries: List[Optional[int]]) -> None:
        """Seed a row from another node's table (node-join bootstrap).

        Entries are offered through :meth:`consider` so the proximity
        preference and self-slot rules still apply.
        """
        for entry in row_entries:
            if entry is not None and entry != self.owner_id:
                self.consider(entry)
