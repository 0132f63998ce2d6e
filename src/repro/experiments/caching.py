"""Caching experiment: Figure 8 (and cache ablations).

The paper plays the full NLANR request stream — inserts on first
reference, lookups afterwards — from client-mapped nodes, with files
cached at every node a request is routed through, and reports the global
cache hit ratio and mean routing hops versus storage utilization for
GreedyDual-Size, LRU, and no caching.

Clients from the same trace site are mapped to PAST nodes that are close
to each other in the emulated network, mirroring the paper's mapping of
the eight geographically distributed NLANR proxies.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..analysis import LoadBalanceStats, load_balance
from ..core import PastNetwork, derive_seed
from ..netsim import LatencyModel, percentiles
from .harness import StorageRunConfig, build_network, make_workload


@dataclass
class CachingRunConfig(StorageRunConfig):
    """Caching runs extend the storage config with request-stream knobs."""

    cache_policy: str = "gds"
    # Denser than the paper's 2.15 requests/URL: at simulation scale the
    # caches need more traffic per utilization point to warm up the way
    # 4M requests warmed them in the paper.
    requests_per_file: float = 6.0
    zipf_alpha: float = 0.8
    recency_bias: float = 0.4
    n_sites: int = 8
    n_clients: int = 160
    site_affinity: float = 0.5
    # Under Zipf popularity only ~2/3 of the file population is ever
    # referenced (and therefore inserted), so the demand target is raised
    # to keep the run's final utilization in the high 90s like the paper's.
    oversubscription: float = 2.9


@dataclass
class CachingRunResult:
    """Counters and the Figure 8 curve for one policy."""

    config: CachingRunConfig
    hit_ratio: float
    mean_hops: float
    lookup_success_ratio: float
    curve: List[tuple]  # (utilization bucket, hit ratio, mean hops, count)
    utilization: float
    n_requests: int
    elapsed_s: float
    network: Optional[PastNetwork] = field(default=None, repr=False)


def run_caching_trace(cfg: CachingRunConfig, keep_network: bool = False) -> CachingRunResult:
    """Play a full request stream and measure hit ratio and fetch distance."""
    start = time.perf_counter()
    net = build_network(cfg, clustered_sites=cfg.n_sites)
    workload = make_workload(
        cfg,
        net,
        requests_per_file=cfg.requests_per_file,
        zipf_alpha=cfg.zipf_alpha,
        recency_bias=cfg.recency_bias,
        n_clients=cfg.n_clients,
        n_sites=cfg.n_sites,
        site_affinity=cfg.site_affinity,
    )
    trace = workload.request_trace()
    client_nodes = _map_clients_to_nodes(net, trace.n_clients, cfg.n_sites, cfg.seed)
    owner = net.create_client("trace-client")
    file_ids: Dict[int, int] = {}
    for event in trace:
        origin = client_nodes[event.client]
        if event.kind == "insert":
            result = net.insert(event.name, owner, event.size, origin)
            if result.success:
                file_ids[event.file_index] = result.file_id
        else:
            fid = file_ids.get(event.file_index)
            if fid is not None:
                net.lookup(fid, origin)
    stats = net.stats
    return CachingRunResult(
        config=cfg,
        hit_ratio=stats.global_cache_hit_ratio(),
        mean_hops=stats.mean_lookup_hops(),
        lookup_success_ratio=stats.lookup_success_ratio(),
        curve=stats.caching_curve(),
        utilization=net.utilization(),
        n_requests=len(trace),
        elapsed_s=time.perf_counter() - start,
        network=net if keep_network else None,
    )


def _map_clients_to_nodes(
    net: PastNetwork, n_clients: int, n_sites: int, seed: int
) -> List[int]:
    """Map trace clients onto overlay nodes within their site's cluster.

    "When a new client identifier is found in a trace, a new node is
    assigned to it in such a way to ensure that requests from the same
    trace are issued from PAST nodes that are close to each other."
    """
    rng = random.Random(derive_seed(seed, "client-mapping"))
    by_site: Dict[int, List[int]] = {}
    for node in net.nodes():
        by_site.setdefault(node.pastry.coord.cluster, []).append(node.node_id)
    all_ids = [n.node_id for n in net.nodes()]
    mapping = []
    for client in range(n_clients):
        site = client % n_sites
        pool = by_site.get(site) or all_ids
        mapping.append(pool[rng.randrange(len(pool))])
    return mapping


def run_caching_sweep(field: str, values, measure=None, **base) -> Dict:
    """One caching run per value of the config's ``field``, the other
    fields from ``base``.  Maps each value to its result or, given
    ``measure``, to ``measure(network)`` of the network the run leaves."""
    out: Dict = {}
    for value in values:
        cfg = CachingRunConfig(**{field: value}, **base)
        result = run_caching_trace(cfg, keep_network=measure is not None)
        out[value] = result if measure is None else measure(result.network)
    return out


def run_figure8(
    n_nodes: int = 100,
    capacity_scale: float = 0.25,
    seed: int = 0,
    policies: Optional[List[str]] = None,
) -> Dict[str, CachingRunResult]:
    """Figure 8: hit ratio and mean hops vs. utilization per cache policy.

    Expected shape: hit ratio falls as utilization rises; mean hops rise
    with utilization but stay below the no-caching line even at 99%
    utilization; GD-S beats LRU on both metrics.
    """
    return run_caching_sweep(
        "cache_policy", policies or ["gds", "lru", "none"],
        n_nodes=n_nodes, capacity_scale=capacity_scale, seed=seed,
    )


def lookup_latency_percentiles(net: PastNetwork) -> Dict[int, float]:
    """p50/p90/p99 of every successful lookup under the paper's 25 ms/hop
    anchor, plus propagation over the topology and a transfer term."""
    model = LatencyModel()
    return percentiles([
        model.lookup_latency_ms(e.hops, e.distance, net.certificate_of(e.file_id).size)
        for e in net.stats.lookups
        if e.success  # only inserted files are looked up, and none is reclaimed
    ])


def query_load_balance(net: PastNetwork) -> LoadBalanceStats:
    """Imbalance of served lookups per node, idle nodes included."""
    return load_balance(net.stats.served_per_node(), population=len(net))
