"""The four workloads: sizes, reasons, and seeded input generation.

Every integer below is a constant of the benchmark: gated runs use exactly
these (``--scale`` and ``--nodes`` exist for the smoke test and manual
N-sweeps).  They were sized on the 2-vCPU box the benchmark was written on
so that one untraced run lasts about 28 s of wall time, of which the timed
phases are about ``RUN_SECONDS``.

This module imports nothing from ``repro`` at import time: the runner reads
the constants before the program under test is loaded, and
:func:`generate` is called by the worker after it has imported ``repro``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

#: Wall seconds of timed phases in one untraced run on the sizing box
#: (``run_seconds`` in BENCHMARK.json); ``--seconds`` scales op counts by
#: ``seconds / RUN_SECONDS``.
RUN_SECONDS = 20

#: Default workload seed (SOSP 2001, the paper's venue; same as devtools.perf).
DEFAULT_SEED = 1201

#: Set-ups per run; ``setup_s`` is their median plus the one import.
SETUP_REPEATS = 3

#: Joins per calibrated block while an overlay is bootstrapped.
BUILD_BLOCK = 25

KINDS = ("insert", "lookup", "reclaim", "join", "churn")

#: Paper's replication factor and trace statistics (PastConfig / web_proxy).
K = 5
MEAN_FILE_BYTES = 10_517
MAX_FILE_BYTES = 138_000_000
D1_MEAN_BYTES = 27_000_000
PAPER_MAX_FILE_RATIO = MAX_FILE_BYTES / D1_MEAN_BYTES

#: A file is "storable" when it is at most this share of the nominal mean
#: node: with t_pri = 0.1 larger ones are refused long before a node fills.
STORABLE_RATIO = 0.05


@dataclass(frozen=True)
class PhaseSpec:
    """One timed phase: ``ops`` client operations, ``block`` per timed block."""

    kind: str
    ops: int
    block: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    engine: str  # "sim" | "tcp"
    nodes: int  # overlay size when set-up ends
    cache_policy: str
    #: Client sites of a ClusteredTopology (0 = the default torus).
    sites: int
    #: k replicas of the trace's *storable* files (those no larger than
    #: STORABLE_RATIO of the nominal mean node) over aggregate capacity;
    #: node capacities are derived from it, so every seed and scale fills alike.
    oversubscription: float
    #: Largest file over the nominal mean node capacity (paper: 138 MB / 27 MB).
    max_file_ratio: float
    phases: Tuple[PhaseSpec, ...]
    #: Op-count multiplier of the two passes a ``--trace 1`` run makes.
    trace_scale: float

    def phase(self, kind: str) -> PhaseSpec:
        return next(p for p in self.phases if p.kind == kind)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim_fill",
            why="Paper 5.1 fill: oversubscribed inserts drive replica/file diversion, "
                "certificates and insert-path caching (sim engine, GD-S cache on); "
                "closed loop, 1 client.",
            engine="sim",
            nodes=200,
            cache_policy="gds",
            sites=0,
            oversubscription=1.4,
            max_file_ratio=PAPER_MAX_FILE_RATIO,
            phases=(
                PhaseSpec("insert", 22_000, 80),
                PhaseSpec("lookup", 50_000, 400),
                PhaseSpec("reclaim", 19_500, 150),
                PhaseSpec("churn", 60, 1),
                PhaseSpec("join", 100, 1),
            ),
            trace_scale=0.3,
        ),
        Workload(
            name="sim_cache_reads",
            why="Paper 5.2 / Fig. 8 reads: Zipf(0.8) request trace from 8 client sites; "
                "GD-S cache and the first routing hop do the work, storage diversion idle; "
                "closed loop, 1 client.",
            engine="sim",
            nodes=300,
            cache_policy="gds",
            sites=8,
            oversubscription=0.5,
            max_file_ratio=STORABLE_RATIO,  # every file storable: diversion stays idle
            phases=(
                PhaseSpec("insert", 16_000, 100),
                PhaseSpec("lookup", 100_000, 500),
                PhaseSpec("reclaim", 15_000, 120),
                PhaseSpec("churn", 100, 1),
                PhaseSpec("join", 160, 2),
            ),
            trace_scale=0.3,
        ),
        Workload(
            name="sim_membership",
            why="Overlay growth 250->1500 nodes on empty stores, then ops at ~2.1 hops; "
                "leaf set, routing table and proximity do the work, cache off (bypassed); "
                "closed loop, 1 client.",
            engine="sim",
            nodes=250,
            cache_policy="none",
            sites=0,
            oversubscription=0.1,
            max_file_ratio=0.005,  # fits the smallest node: nothing diverted or refused
            phases=(
                PhaseSpec("join", 1_250, 5),
                PhaseSpec("insert", 15_000, 100),
                PhaseSpec("lookup", 55_000, 400),
                PhaseSpec("reclaim", 14_000, 100),
                PhaseSpec("churn", 300, 2),
            ),
            trace_scale=0.22,
        ),
        Workload(
            name="tcp_serve",
            why="16-node localhost TCP cluster (loopback), WAL stores fsynced every record "
                "(sync_every=1), real content bytes: codec, transport and WAL run only here; "
                "cache off; closed loop, 1 client.",
            engine="tcp",
            nodes=16,
            cache_policy="none",
            sites=0,
            oversubscription=0.0,  # build_cluster's ample fixed capacity
            max_file_ratio=0.0,
            phases=(
                PhaseSpec("insert", 500, 4),
                PhaseSpec("lookup", 8_000, 50),
                PhaseSpec("reclaim", 420, 4),
                PhaseSpec("churn", 100, 1),
                PhaseSpec("join", 100, 1),
            ),
            trace_scale=0.32,
        ),
    )
}


def scaled(workload: Workload, scale: float, nodes: Optional[int]) -> Workload:
    """The workload with op counts multiplied by ``scale`` (and N overridden).

    Each phase keeps at least two blocks so every metric stays defined.
    """
    phases = tuple(
        replace(p, ops=max(2 * p.block, int(round(p.ops * scale))))
        for p in workload.phases
    )
    return replace(
        workload, phases=phases, nodes=nodes if nodes is not None else workload.nodes
    )


@dataclass
class Inputs:
    """Everything a run feeds the program, generated from the seed alone."""

    capacities: List[int]  # one per bootstrap node
    join_capacities: List[int]  # one per join-phase admission
    clusters: Optional[List[int]]
    #: (file index, name, size, content-or-None, client) per insert; lookups
    #: name files by that index.  ``client`` is a trace client id when the
    #: workload has sites, else a draw the runner maps onto a live node.
    inserts: List[tuple]
    #: (file index or draw, client) per lookup.
    lookups: List[tuple]
    reclaim_order: List[float]  # one sort key per inserted file
    reclaim_clients: List[int]
    churn_victims: List[int]
    n_clients: int


def generate(workload: Workload, seed: int) -> Inputs:
    """Seeded inputs for one run.  Same ``(workload, seed)``, same inputs."""
    from repro.core import derive_seed
    from repro.workloads import D1, WebProxyWorkload

    n_inserts = workload.phase("insert").ops
    n_lookups = workload.phase("lookup").ops
    n_joins = workload.phase("join").ops
    rng = random.Random(derive_seed(seed, f"bench-{workload.name}"))
    n_clients = 160 if workload.sites else 1

    if workload.engine == "tcp":
        # A fixed multiset of sizes (512..4096 B) in seeded order: the bytes
        # stored, and so storage_utilization, do not depend on the seed.
        sizes = [256 * (2 + i % 15) for i in range(n_inserts)]
        rng.shuffle(sizes)
        inserts = [
            (i, f"wire-file-{i}", size, rng.randbytes(size), rng.getrandbits(30))
            for i, size in enumerate(sizes)
        ]
        capacities = join_capacities = []  # build_cluster's fixed NODE_CAPACITY
    else:
        # The nominal mean node holds its share of k replicas of a trace of
        # mean-sized files; file sizes are capped relative to it.
        nominal_node = (n_inserts * MEAN_FILE_BYTES * K) / (
            workload.oversubscription * workload.nodes
        )
        trace_args = dict(
            n_files=n_inserts,
            max_bytes=max(1, int(workload.max_file_ratio * nominal_node)),
            seed=derive_seed(seed, "bench-trace") % (1 << 32),
        )
        if workload.sites:
            trace_args.update(n_clients=n_clients, n_sites=workload.sites,
                              zipf_alpha=0.8, site_affinity=0.5, recency_bias=0.4)
        web = WebProxyWorkload(**trace_args)
        inserts = [
            (e.file_index, e.name, e.size, None,
             e.client if workload.sites else rng.getrandbits(30))
            for e in web.storage_trace()
        ]
        # d1-shaped capacities, rescaled so that k replicas of *this* trace's
        # storable files are exactly `oversubscription` times what the
        # overlay holds when the insert phase starts.  A heavy-tailed trace's bytes differ by
        # +-5 % from seed to seed, nearly all of it in files too large to
        # store anywhere; sized on nominal or total bytes, the accepted share
        # of sim_fill's inserts moved 0.875-0.937 over 8 seeds, sized on
        # storable bytes 0.954-0.960.
        storable = STORABLE_RATIO * nominal_node
        demand = K * sum(item[2] for item in inserts if item[2] <= storable)
        drawn = D1.sample(workload.nodes + n_joins, rng, 1.0)
        kinds = [p.kind for p in workload.phases]
        present = len(drawn) if kinds.index("join") < kinds.index("insert") else workload.nodes
        factor = demand / (workload.oversubscription * sum(drawn[:present]))
        drawn = [max(1, int(c * factor)) for c in drawn]
        capacities, join_capacities = drawn[:workload.nodes], drawn[workload.nodes:]

    if workload.sites:
        # The Fig. 8 request stream; every file is already inserted, so
        # each reference (first ones too) is played as a lookup.
        lookups = [
            (e.file_index, e.client) for e in web.request_trace(n_requests=n_lookups)
        ]
    else:
        lookups = [(rng.getrandbits(30), rng.getrandbits(30)) for _ in range(n_lookups)]

    return Inputs(
        capacities=capacities,
        join_capacities=join_capacities,
        clusters=list(range(workload.sites)) if workload.sites else None,
        inserts=inserts,
        lookups=lookups,
        reclaim_order=[rng.random() for _ in range(n_inserts)],
        reclaim_clients=[rng.getrandbits(30) for _ in range(workload.phase("reclaim").ops)],
        churn_victims=[rng.getrandbits(30) for _ in range(workload.phase("churn").ops)],
        n_clients=n_clients,
    )
