"""Message and hop accounting for the emulated network."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MessageStats:
    """Aggregate counters maintained by the overlay network.

    ``hops`` counts per-hop message transmissions; ``routes`` counts routed
    requests; ``distance`` accumulates the proximity-metric length of all
    hops, which supports the locality (route-stretch) benchmarks.
    """

    routes: int = 0
    hops: int = 0
    distance: float = 0.0
    direct_rpcs: int = 0
    _hop_histogram: dict = field(default_factory=dict)

    def record_route(self, hop_count: int, distance: float) -> None:
        self.routes += 1
        self.hops += hop_count
        self.distance += distance
        self._hop_histogram[hop_count] = self._hop_histogram.get(hop_count, 0) + 1

    def record_rpc(self, distance: float = 0.0) -> None:
        """A direct (non-routed) RPC, e.g. replica forwarding within a leaf set."""
        self.direct_rpcs += 1
        self.distance += distance

    @property
    def mean_hops(self) -> float:
        return self.hops / self.routes if self.routes else 0.0

    def hop_histogram(self) -> dict:
        return dict(self._hop_histogram)

    def reset(self) -> None:
        self.routes = 0
        self.hops = 0
        self.distance = 0.0
        self.direct_rpcs = 0
        self._hop_histogram.clear()
