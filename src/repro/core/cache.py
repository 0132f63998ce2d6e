"""Cache management (§4 of the paper).

PAST nodes use the *unused* portion of their advertised disk space to
cache files that are routed through them during lookups and inserts.
Cached copies may be evicted at any time — in particular when a primary or
diverted replica needs the space.

The paper's replacement policy is **GreedyDual-Size** (Cao & Irani,
USITS'97) with cost ``c(d) = 1``, which maximizes hit rate; plain **LRU**
is implemented for the Figure 8 comparison, plus a disabled policy for the
no-caching baseline.

GreedyDual-Size is implemented with the standard "inflation" optimization:
instead of subtracting the evicted victim's weight ``H_v`` from every
remaining file, a global offset ``L`` is raised to ``H_v`` and new/hit
files enter with ``H = L + c(d)/s(d)``.  The relative order of weights is
identical to the textbook formulation.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Callable, Dict, Iterable, Optional, Tuple


class EvictionPolicy:
    """Interface for cache replacement policies."""

    def on_insert(self, file_id: int, size: int) -> None:
        raise NotImplementedError

    def on_hit(self, file_id: int) -> None:
        raise NotImplementedError

    def on_remove(self, file_id: int) -> None:
        raise NotImplementedError

    def victim(self) -> Optional[int]:
        """The fileId to evict next (None if the policy tracks nothing)."""
        raise NotImplementedError

    def on_evict(self, file_id: int) -> None:
        """Notification that ``file_id`` was evicted (after ``victim``)."""
        self.on_remove(file_id)


class GreedyDualSizePolicy(EvictionPolicy):
    """GreedyDual-Size with cost function ``cost_fn`` (default: constant 1).

    Maintains ``H(d) = L + cost(d)/size(d)``; evicts the minimal-``H`` file
    and inflates ``L`` to the victim's ``H``.  A lazy heap holds
    ``(H, seq, file_id)`` entries; stale entries are skipped on pop, and
    the heap is rebuilt from the live weights once most of it is stale (a
    cache that never fills never pops).  ``(H, seq)`` is a strict total
    order, so the victim order does not depend on the heap's layout.
    """

    #: Stale heap entries tolerated beyond one per live weight.
    _HEAP_SLACK = 64

    def __init__(self, cost_fn: Callable[[int, int], float] = None):
        self._cost_fn = cost_fn if cost_fn is not None else (lambda fid, size: 1.0)
        self._heap: list = []
        self._weights: Dict[int, Tuple[float, int]] = {}  # fid -> (H, seq)
        self._sizes: Dict[int, int] = {}
        self._inflation = 0.0
        self._seq = 0

    @property
    def inflation(self) -> float:
        """Current value of the global offset L."""
        return self._inflation

    def weight(self, file_id: int) -> Optional[float]:
        """Current H value of a cached file (None if absent)."""
        entry = self._weights.get(file_id)
        return entry[0] if entry else None

    def _set_weight(self, file_id: int, size: int) -> None:
        cost = self._cost_fn(file_id, size)
        h = self._inflation + (cost / size if size > 0 else float("inf"))
        self._seq += 1
        self._weights[file_id] = (h, self._seq)
        self._sizes[file_id] = size
        heapq.heappush(self._heap, (h, self._seq, file_id))
        self._drop_stale_entries()

    def _drop_stale_entries(self) -> None:
        if len(self._heap) > 2 * len(self._weights) + self._HEAP_SLACK:
            self._heap = [(h, seq, fid) for fid, (h, seq) in self._weights.items()]
            heapq.heapify(self._heap)

    def on_insert(self, file_id: int, size: int) -> None:
        self._set_weight(file_id, size)

    def on_hit(self, file_id: int) -> None:
        size = self._sizes.get(file_id)
        if size is not None:
            self._set_weight(file_id, size)

    def on_remove(self, file_id: int) -> None:
        self._weights.pop(file_id, None)
        self._sizes.pop(file_id, None)
        self._drop_stale_entries()

    def victim(self) -> Optional[int]:
        while self._heap:
            h, seq, fid = self._heap[0]
            current = self._weights.get(fid)
            if current is None or current != (h, seq):
                heapq.heappop(self._heap)  # stale entry
                continue
            return fid
        return None

    def on_evict(self, file_id: int) -> None:
        entry = self._weights.get(file_id)
        if entry is not None:
            # Inflate L to the victim's H — equivalent to subtracting H_v
            # from every remaining cached file.
            self._inflation = max(self._inflation, entry[0])
        self.on_remove(file_id)


class LRUPolicy(EvictionPolicy):
    """Least-recently-used replacement (the Figure 8 comparison point)."""

    def __init__(self):
        self._order: "OrderedDict[int, int]" = OrderedDict()

    def on_insert(self, file_id: int, size: int) -> None:
        self._order[file_id] = size
        self._order.move_to_end(file_id)

    def on_hit(self, file_id: int) -> None:
        if file_id in self._order:
            self._order.move_to_end(file_id)

    def on_remove(self, file_id: int) -> None:
        self._order.pop(file_id, None)

    def victim(self) -> Optional[int]:
        return next(iter(self._order), None)


def make_policy(name: str) -> Optional[EvictionPolicy]:
    """Instantiate an eviction policy by config name (None = caching off)."""
    if name == "gds":
        return GreedyDualSizePolicy()
    if name == "lru":
        return LRUPolicy()
    if name == "none":
        return None
    raise ValueError(f"unknown cache policy {name!r}")


class CacheManager:
    """The per-node file cache.

    The cache's capacity is *elastic*: it may use whatever portion of the
    node's disk is not occupied by primary/diverted replicas, a figure the
    owning :class:`~repro.core.storage.LocalStore` supplies through
    ``available_fn``.  When replicas grow, the store calls
    :meth:`shrink_to` and cached files are discarded.
    """

    __slots__ = (
        "_policy", "_available_fn", "_insert_fraction", "_entries",
        "bytes_used", "insertions", "evictions", "hits", "misses",
    )

    def __init__(
        self,
        policy: Optional[EvictionPolicy],
        available_fn: Callable[[], int],
        insert_fraction: float = 1.0,
    ):
        self._policy = policy
        self._available_fn = available_fn
        self._insert_fraction = insert_fraction
        self._entries: Dict[int, int] = {}  # fid -> size
        self.bytes_used = 0
        self.insertions = 0
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self._policy is not None

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def files(self) -> Iterable[int]:
        return self._entries.keys()

    def size_of(self, file_id: int) -> Optional[int]:
        return self._entries.get(file_id)

    # ---------------------------------------------------------------- reads

    def lookup(self, file_id: int) -> bool:
        """Check the cache; a hit refreshes the policy's weight."""
        if file_id in self._entries:
            self.hits += 1
            self._policy.on_hit(file_id)
            return True
        self.misses += 1
        return False

    # --------------------------------------------------------------- writes

    def consider(self, file_id: int, size: int) -> bool:
        """Apply the cache-insertion policy to a routed-through file.

        The file is cached iff its size is less than the fraction *c* of
        the node's current cache size (the portion of storage not holding
        replicas).  Returns True if the file was cached.
        """
        if self._policy is None or file_id in self._entries:
            return False
        cache_size = self._available_fn()
        if size <= 0 or size >= self._insert_fraction * cache_size:
            return False
        if not self._make_room(size, cache_size):
            return False
        self._entries[file_id] = size
        self.bytes_used += size
        self._policy.on_insert(file_id, size)
        self.insertions += 1
        return True

    def _make_room(self, needed: int, cache_size: int) -> bool:
        """Evict victims until ``needed`` bytes fit within ``cache_size``."""
        while self.bytes_used + needed > cache_size:
            victim = self._policy.victim()
            if victim is None:
                return False
            self._evict(victim)
        return True

    def _evict(self, file_id: int) -> None:
        size = self._entries.pop(file_id)
        self.bytes_used -= size
        self._policy.on_evict(file_id)
        self.evictions += 1

    def shrink_to(self, cache_size: int) -> None:
        """Discard cached files until the cache fits in ``cache_size`` bytes.

        Called by the store when a new replica claims disk space.
        """
        if self._policy is None:
            return
        while self.bytes_used > cache_size:
            victim = self._policy.victim()
            if victim is None:  # pragma: no cover - bytes_used>0 implies entries
                break
            self._evict(victim)

    def remove(self, file_id: int) -> bool:
        """Explicitly drop a cached file (e.g. local invalidation)."""
        if file_id not in self._entries:
            return False
        size = self._entries.pop(file_id)
        self.bytes_used -= size
        self._policy.on_remove(file_id)
        return True

    def clear(self) -> None:
        for fid in list(self._entries):
            self.remove(fid)
