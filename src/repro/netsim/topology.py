"""Node placement models and the network proximity metric.

Pastry only requires a *scalar* proximity metric between nodes (the paper
suggests IP routing hops, bandwidth or geographic distance).  We model the
underlying network by embedding nodes in a metric space and using the
embedding distance as the proximity metric, as the Pastry paper's own
emulator does.

The space is the 2-D unit torus (no edge effects, cheap distance
computation), with two placement models over the one metric:

* :class:`TorusTopology` — uniform placement.  The default.
* :class:`ClusteredTopology` — placement into a configurable number of
  geographic clusters.  Used by the caching experiment, which maps the
  clients of each of the eight NLANR trace sites to *nearby* overlay nodes.

One metric is what lets :class:`~repro.pastry.network.PastryNetwork` find a
joining node's nearest neighbour through a uniform grid over the torus.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Tuple


class Coordinate:
    """A point on the unit torus.

    ``cluster`` records which cluster the point was drawn from (if any),
    which lets workloads map trace sites onto co-located nodes.

    Plain ``__slots__`` class: one coordinate is allocated per node at
    placement time, so instances should not carry a ``__dict__``.
    """

    __slots__ = ("x", "y", "cluster")

    def __init__(self, x: float, y: float, cluster: Optional[int] = None) -> None:
        self.x = x
        self.y = y
        self.cluster = cluster

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coordinate):
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.cluster == other.cluster

    def __repr__(self) -> str:
        return f"Coordinate(x={self.x!r}, y={self.y!r}, cluster={self.cluster!r})"


class TorusTopology:
    """Uniform placement on the unit square with wrap-around distances."""

    def place(self, rng: random.Random, cluster: Optional[int] = None) -> Coordinate:
        """Draw a coordinate for a newly joining node."""
        return Coordinate(rng.random(), rng.random(), cluster)

    def distance(self, a: Coordinate, b: Coordinate) -> float:
        """The scalar proximity metric between two coordinates."""
        dx = abs(a.x - b.x)
        dy = abs(a.y - b.y)
        dx = min(dx, 1.0 - dx)
        dy = min(dy, 1.0 - dy)
        return math.hypot(dx, dy)


class ClusteredTopology(TorusTopology):
    """Nodes drawn from Gaussian clusters on the unit torus.

    Cluster centres are spread deterministically; each placement draws from
    the requested cluster (or a random one).  The caching experiment uses
    one cluster per NLANR trace site so that clients of the same site issue
    requests from nearby overlay nodes.
    """

    def __init__(self, n_clusters: int, spread: float = 0.05, seed: int = 0):
        if n_clusters < 1:
            raise ValueError("need at least one cluster")
        self.n_clusters = n_clusters
        self.spread = spread
        centre_rng = random.Random(seed)
        self._centres: Tuple[Tuple[float, float], ...] = tuple(
            (centre_rng.random(), centre_rng.random()) for _ in range(n_clusters)
        )

    def centre(self, cluster: int) -> Tuple[float, float]:
        return self._centres[cluster % self.n_clusters]

    def place(self, rng: random.Random, cluster: Optional[int] = None) -> Coordinate:
        if cluster is None:
            cluster = rng.randrange(self.n_clusters)
        cx, cy = self.centre(cluster)
        x = (cx + rng.gauss(0.0, self.spread)) % 1.0
        y = (cy + rng.gauss(0.0, self.spread)) % 1.0
        return Coordinate(x, y, cluster % self.n_clusters)
