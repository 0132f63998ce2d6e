"""Latency model: turn hop counts and emulated distances into wall time.

The paper deliberately reports lookup performance in Pastry routing hops
"because actual lookup delays strongly depend on per-hop network delays",
noting only that its prototype fetched a 1 kB file one hop away on a LAN
in ~25 ms.  This model makes that conversion explicit and configurable:

    latency = hops * per_hop_ms + route_distance * ms_per_unit
              + size / bandwidth

* ``per_hop_ms`` — fixed per-hop processing cost (the prototype's 25 ms).
* ``ms_per_unit`` — propagation delay per unit of the topology's
  proximity metric (the unit torus's diameter mapped onto a
  continental RTT by default).
* ``bandwidth_bytes_per_ms`` — transfer time for the file body.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's prototype measurement: ~25 ms for a 1 kB file one hop away.
PAPER_PER_HOP_MS = 25.0


@dataclass(frozen=True)
class LatencyModel:
    """Converts routed hops/distance/size into milliseconds."""

    per_hop_ms: float = PAPER_PER_HOP_MS
    #: A unit of proximity-metric distance, in ms.  The default maps the
    #: torus diameter (~0.71) to ~50 ms one-way — a continental WAN.
    ms_per_unit: float = 70.0
    bandwidth_bytes_per_ms: float = 1_250.0  # 10 Mbit/s

    def lookup_latency_ms(self, hops: int, distance: float, size: int = 0) -> float:
        """Estimated latency of one lookup."""
        if hops < 0 or distance < 0 or size < 0:
            raise ValueError("hops, distance and size must be non-negative")
        transfer = size / self.bandwidth_bytes_per_ms if self.bandwidth_bytes_per_ms else 0.0
        return hops * self.per_hop_ms + distance * self.ms_per_unit + transfer


def percentiles(samples, points=(50, 90, 99)) -> dict:
    """Simple percentile summary of a latency sample list."""
    if not samples:
        return {p: 0.0 for p in points}
    ordered = sorted(samples)
    out = {}
    for p in points:
        idx = min(len(ordered) - 1, int(round(p / 100 * (len(ordered) - 1))))
        out[p] = ordered[idx]
    return out
