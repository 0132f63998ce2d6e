"""Query-load-balance metrics.

Caching in PAST exists "to maximize the query throughput and to balance
the query load in the system" (§4): without caching, the k replica
holders of a popular file absorb its entire lookup load; with caching,
copies spread toward the consumers and the load flattens.  This module
quantifies that with standard imbalance metrics over the per-node count
of lookups served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class LoadBalanceStats:
    """Imbalance metrics over a per-node served-request distribution."""

    responders: int  # nodes that served at least one request
    total_requests: int
    max_load: int
    mean_load: float
    max_to_mean: float  # peak-to-average ratio (1.0 = perfectly flat)
    gini: float  # 0 = perfectly equal, -> 1 = one node serves all
    top5_share: float  # fraction of requests served by the 5 busiest nodes


def load_balance(per_node_served: Dict[int, int], population: int = None) -> LoadBalanceStats:
    """Compute imbalance metrics.

    ``per_node_served`` maps node id to requests served.  ``population``
    optionally includes nodes that served nothing (they count toward the
    mean and the Gini coefficient; by default only responders count).
    """
    counts = [c for c in per_node_served.values() if c > 0]
    total = sum(counts)
    n = population if population is not None else len(counts)
    if n <= 0 or total == 0:
        return LoadBalanceStats(0, 0, 0, 0.0, 0.0, 0.0, 0.0)
    padded = sorted(counts) if population is None else sorted(
        counts + [0] * max(0, population - len(counts))
    )
    mean = total / n
    max_load = padded[-1]
    # Gini via the sorted-rank formula.
    cum = 0.0
    for i, value in enumerate(padded, start=1):
        cum += i * value
    gini = (2.0 * cum) / (n * total) - (n + 1.0) / n
    top5 = sum(sorted(counts, reverse=True)[:5]) / total
    return LoadBalanceStats(
        responders=len(counts),
        total_requests=total,
        max_load=max_load,
        mean_load=mean,
        max_to_mean=max_load / mean if mean else 0.0,
        gini=max(0.0, gini),
        top5_share=top5,
    )

