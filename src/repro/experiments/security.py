"""Security experiment: randomized routing vs. malicious nodes (§2.3).

"Pastry, as described so far, is deterministic and thus vulnerable to
malicious or failed nodes along the route that accept messages but do not
correctly forward them.  Repeated queries could thus fail each time,
since they are likely to take the same route.  To overcome this problem,
the routing is actually randomized."

This driver measures exactly that: a fraction of nodes silently drop
transiting requests (while staying responsive to keep-alives, so they are
never declared failed).  Clients retry dropped lookups a few times.  With
deterministic routing the retry repeats the same path and keeps hitting
the same bad node; with randomized routing each retry is biased but
random, so the request escapes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional

from ..core import PastConfig
from ..core.episode import build_deployment
from ..workloads import DISTRIBUTIONS


@dataclass
class SecurityResult:
    """Lookup success under attack, for one routing mode and one f."""

    randomized: bool
    malicious_fraction: float
    retries: int
    lookups: int
    succeeded: int
    elapsed_s: float

    @property
    def success_ratio(self) -> float:
        return self.succeeded / self.lookups if self.lookups else 0.0


def run_malicious_routing(
    malicious_fractions: Optional[List[float]] = None,
    n_nodes: int = 120,
    n_files: int = 80,
    lookups_per_file: int = 3,
    retries: int = 4,
    capacity_scale: float = 1.0,
    seed: int = 0,
) -> List[SecurityResult]:
    """Sweep malicious fraction x {deterministic, randomized} routing."""
    malicious_fractions = malicious_fractions or [0.05, 0.10, 0.20]
    results: List[SecurityResult] = []
    for randomized in (False, True):
        for fraction in malicious_fractions:
            start = time.perf_counter()
            rng = random.Random(seed)
            config = PastConfig(
                l=16, k=3, seed=seed, cache_policy="none",
                randomize_routing=randomized,
            )
            # Insert while the network is honest, then corrupt nodes.
            net = build_deployment(
                config,
                DISTRIBUTIONS["d1"].sample(n_nodes, rng, capacity_scale),
                n_files, lambda _rng: 20_000, rng, owner="sec", prefix="sec",
            )
            node_ids = [n.node_id for n in net.nodes()]
            fids = net.live_file_ids()
            bad = list(node_ids)
            rng.shuffle(bad)
            if not net.pastry.malicious:  # honest until the corruption phase
                net.pastry.malicious = set(bad[: int(fraction * len(bad))])

            lookups = succeeded = 0
            honest = [n for n in node_ids if n not in net.pastry.malicious]
            for fid in fids:
                for _ in range(lookups_per_file):
                    origin = honest[rng.randrange(len(honest))]
                    lookups += 1
                    if net.lookup(fid, origin, retries=retries).success:
                        succeeded += 1
            results.append(
                SecurityResult(
                    randomized=randomized,
                    malicious_fraction=fraction,
                    retries=retries,
                    lookups=lookups,
                    succeeded=succeeded,
                    elapsed_s=time.perf_counter() - start,
                )
            )
    return results
