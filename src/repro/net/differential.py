"""Cross-engine differential harness: SimTransport vs AsyncioTransport.

The wire analyzer proves the RPC surface *can* ship; this module proves
the shipped system *behaves identically*.  The same seeded cluster build
and insert/lookup/join workload runs once over the in-process simulator
transport and once over real localhost TCP, and the final observable state
— which node holds which replica, where every diversion pointer aims,
what every lookup returned, and a clean invariant audit — is folded into
one outcome checksum per engine.  Equal checksums certify that the
transport swap changed the wires and nothing else.

Determinism contract: the driver issues operations sequentially, so both
engines consume identical RNG streams (node ids, salts, placements); the
transports themselves draw no randomness.  The checksum hashes canonical
JSON (sorted keys, sorted id lists), so it is hash-seed independent.

The ``serve`` bench reuses the same cluster/workload plumbing: inserts
are driven sequentially (fileId salts come from one shared client RNG,
so ordering is part of the outcome), then the lookup phase fans out
across worker threads — real concurrent TCP traffic against the same
node state, with per-node dispatch locks keeping the engine sane.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.config import PastConfig
from ..core.invariants import audit
from ..core.network import PastNetwork
from .asyncio_transport import AsyncioTransport

__all__ = [
    "build_cluster",
    "run_workload",
    "outcome_checksum",
    "run_differential",
    "run_serve",
    "graceful_shutdown",
    "restart_from_wal",
]

#: Capacity per node: ample, so the differential exercises placement and
#: diversion logic rather than capacity exhaustion noise.
NODE_CAPACITY = 2_000_000


def build_cluster(
    n_nodes: int,
    seed: int,
    engine: str = "sim",
    data_dir: Optional[Path] = None,
    config: Optional[PastConfig] = None,
) -> Tuple[PastNetwork, Optional[AsyncioTransport]]:
    """One seeded PAST deployment on the chosen transport engine.

    ``engine="asyncio"`` swaps the deployment's one transport *before*
    any node joins, so join-time leafset/routing-table RPCs cross real
    sockets too; ``seed`` also seeds its reconnect-backoff RNG.

    ``data_dir`` makes every node's store durable: each LocalStore is
    born with a :class:`~repro.store.WalBackend` journaling to
    ``data_dir/<node_id>``, fsyncing every record (``sync_every=1``) —
    a killed process loses nothing that was acknowledged.
    """
    net = PastNetwork(config=config if config is not None
                      else PastConfig(seed=seed))
    if data_dir is not None:
        from ..store import WalBackend

        base = Path(data_dir)

        def factory(node_id: int, _installed) -> WalBackend:
            return WalBackend(
                base / f"{node_id:032x}", node_id=node_id, sync_every=1
            )

        net.store_backend_factory = factory
    transport: Optional[AsyncioTransport] = None
    if engine == "asyncio":
        transport = AsyncioTransport(net.pastry, seed=seed)
        net.transport = transport
    elif engine != "sim":
        raise ValueError(f"unknown engine {engine!r}")
    net.build([NODE_CAPACITY] * n_nodes)
    return net, transport


def run_workload(
    net: PastNetwork,
    n_files: int,
    seed: int,
    join_extra: int = 2,
) -> Dict[str, Any]:
    """The pinned insert/lookup/join sequence, identical per engine."""
    rng = random.Random(seed)
    owner = net.create_client("differential")
    inserts = []
    for i in range(n_files):
        client_id = _pick_client(net, rng)
        content = rng.getrandbits(8 * 64).to_bytes(64, "big") * rng.randrange(1, 9)
        result = net.insert(
            f"wire-file-{i}", owner, content=content, client_id=client_id
        )
        inserts.append(result)
    # Mid-workload joins: each admission triggers replica migration and
    # leafset repair over the transport under test.
    for _ in range(join_extra):
        net.add_node(NODE_CAPACITY)
    lookups = []
    for result in inserts:
        if not result.success:
            lookups.append(None)
            continue
        client_id = _pick_client(net, rng)
        lookups.append(net.lookup(result.file_id, client_id=client_id))
    return {"inserts": inserts, "lookups": lookups}


def _pick_client(net: PastNetwork, rng: random.Random) -> int:
    ids = net.pastry.node_ids
    return ids[rng.randrange(len(ids))]


def outcome_checksum(net: PastNetwork, workload: Dict[str, Any]) -> Tuple[str, dict]:
    """sha256 over the canonical observable outcome; also returns the view.

    Covers per-node stored state (primaries, diverted-in replicas,
    pointer targets, cache contents), every lookup's client-visible
    answer, and the invariant audit — everything the paper's storage
    semantics promise, nothing timing-dependent.
    """
    nodes = {}
    for node in sorted(net.nodes(), key=lambda n: n.node_id):
        store = node.store
        nodes[f"{node.node_id:#x}"] = {
            "primaries": sorted(store.primaries),
            "diverted_in": sorted(store.diverted_in),
            "pointers": sorted(
                (fid, ptr.target_id) for fid, ptr in store.pointers.items()
            ),
            "cached": sorted(store.cache.files()),
        }
    lookups = []
    for result in workload["lookups"]:
        if result is None:
            lookups.append(None)
            continue
        content_hash = (
            hashlib.sha256(result.content).hexdigest()
            if result.content is not None else None
        )
        lookups.append({
            "file_id": result.file_id,
            "success": result.success,
            "responder": result.responder_id,
            "hops": result.hops,
            "content_sha256": content_hash,
        })
    inserts = [
        {"success": r.success, "file_id": r.file_id, "attempts": r.attempts,
         "replica_diversions": r.replica_diversions}
        for r in workload["inserts"]
    ]
    report = audit(net)
    view = {
        "nodes": nodes,
        "inserts": inserts,
        "lookups": lookups,
        "audit_violations": [
            f"{v.kind}: {v.detail}" for v in report.violations
        ],
    }
    blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), view


def _run_engine(
    engine: str, n_nodes: int, n_files: int, seed: int
) -> Tuple[str, dict, Optional[Dict[str, int]]]:
    net, transport = build_cluster(n_nodes, seed, engine=engine)
    try:
        workload = run_workload(net, n_files, seed=seed + 1)
        checksum, view = outcome_checksum(net, workload)
        wire = transport.wire.snapshot() if transport is not None else None
        return checksum, view, wire
    finally:
        if transport is not None:
            transport.close()


def run_differential(
    n_nodes: int = 10, n_files: int = 8, seed: int = 7
) -> Dict[str, Any]:
    """Both engines, one workload; the checksums must match."""
    sim_sum, sim_view, _ = _run_engine("sim", n_nodes, n_files, seed)
    net_sum, net_view, wire = _run_engine("asyncio", n_nodes, n_files, seed)
    return {
        "sim": sim_sum,
        "asyncio": net_sum,
        "equal": sim_sum == net_sum,
        "sim_view": sim_view,
        "asyncio_view": net_view,
        # Classified wire-failure counters from the localhost TCP engine: a
        # clean differential run must observe none.
        "wire": wire,
    }


# -------------------------------------------------------------- serve bench


def graceful_shutdown(
    transport: AsyncioTransport, net: PastNetwork, timeout: float = 10.0
) -> Dict[str, Any]:
    """Drain in-flight dispatches, close sockets, flush durable state.

    The SIGTERM/KeyboardInterrupt path of ``repro serve``: handlers
    already inside a node finish (with their nested RPCs) before the
    servers close, then every WAL backend takes a final fsync barrier —
    the restarted process recovers exactly the acknowledged state.
    """
    drained = transport.drain(timeout=timeout)
    transport.close()
    flushed = 0
    for node in net.nodes():
        backend = node.store.backend
        if backend is not None and not backend.closed:
            backend.close()  # close() flushes first
            flushed += 1
    return {"drained": drained, "wals_flushed": flushed}


def _restart_from_wal(
    net: PastNetwork, transport: AsyncioTransport, victim: int
) -> Dict[str, Any]:
    """Kill one live node and bring it back from its WAL, over real TCP.

    The surviving nodes see an ordinary failure + recovery.
    """
    node = net.past_node_or_none(victim)
    pre_files = sorted(node.store.file_ids())
    # kill -9: no flush; sync_every=1 means nothing unsynced
    node.store.backend.crash()
    net.crash_node(victim)
    transport.stop_server(victim)
    net.process_failure_detection(victim)
    net.repair_all()
    return restart_from_wal(net, transport, victim, pre_files)


def restart_from_wal(
    net: PastNetwork,
    transport: AsyncioTransport,
    victim: int,
    pre_files: List[int],
) -> Dict[str, Any]:
    """Bring a killed, detected node back from its journal and serve again.

    The same sequence a killed process performs on restart: reopen the
    journal directory (recovery = snapshot + replay), rebuild the
    in-memory store from the recovered state, rejoin the overlay.
    """
    reborn = net.reopen_store(victim)
    # WAL fidelity is judged here, before the overlay reconciles: the
    # journal must reproduce exactly the pre-kill entry set.  The
    # recovery listener may then legitimately prune entries whose
    # responsibility moved while the node was down.
    state = reborn.state
    restored = len(state.replicas) + len(state.pointers)
    recovered_all = sorted(set(state.replicas) | set(state.pointers)) == pre_files
    net.recover_node(victim)
    transport.ensure_server(victim)
    return {
        "victim": f"{victim:#x}",
        "entries_before_kill": len(pre_files),
        "entries_restored": restored,
        "records_replayed": reborn.recovery.records_replayed,
        "snapshot_seq": reborn.recovery.snapshot_seq,
        "recovered_all": recovered_all,
    }


def run_serve(
    n_nodes: int = 16,
    n_files: int = 32,
    seed: int = 1201,
    workers: int = 4,
    lookup_rounds: int = 4,
    data_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Boot a real-TCP cluster and serve insert/lookup traffic.

    Inserts run sequentially (the shared client RNG salts fileIds, so
    issue order is part of the deterministic outcome); lookups fan out
    over ``workers`` threads, each draining its own shard of the request
    queue against the same live cluster.  Returns a BENCH-style record
    with throughput, wall time, peak RSS and the outcome checksum.

    ``data_dir`` turns on durability: every store journals through a
    WAL under ``data_dir``, one node is killed after the insert phase
    and restarted from its journal (the record's ``durability`` section
    reports the recovery), and shutdown — including SIGTERM or Ctrl-C —
    drains in-flight dispatches and fsyncs every WAL before exiting.
    """
    t_wall = time.perf_counter()
    net, transport = build_cluster(
        n_nodes, seed, engine="asyncio", data_dir=data_dir
    )
    assert transport is not None
    interrupted = False

    def _raise_interrupt(_sig, _frm):
        raise KeyboardInterrupt

    prev_term = None
    if threading.current_thread() is threading.main_thread():
        prev_term = signal.signal(signal.SIGTERM, _raise_interrupt)
    durability: Optional[Dict[str, Any]] = None
    record: Optional[Dict[str, Any]] = None
    try:
        t_insert = time.perf_counter()
        workload = run_workload(net, n_files, seed=seed + 1, join_extra=2)
        insert_s = time.perf_counter() - t_insert

        if data_dir is not None:
            victim = min(net.pastry.node_ids)
            durability = _restart_from_wal(net, transport, victim)

        fids = [r.file_id for r in workload["inserts"] if r.success]
        client_ids = net.pastry.node_ids
        requests = [
            (fid, client_ids[(i + j) % len(client_ids)])
            for j in range(lookup_rounds)
            for i, fid in enumerate(fids)
        ]
        failures: List[int] = []
        lock = threading.Lock()

        def drain(shard: int) -> None:
            for fid, client_id in requests[shard::workers]:
                result = net.lookup(fid, client_id=client_id)
                if not result.success:
                    with lock:
                        failures.append(fid)

        t_lookup = time.perf_counter()
        threads = [
            threading.Thread(target=drain, args=(i,), name=f"serve-client-{i}")
            for i in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        lookup_s = time.perf_counter() - t_lookup

        checksum, view = outcome_checksum(net, workload)
        wall_s = time.perf_counter() - t_wall
        ops = len(workload["inserts"]) + len(requests)
        record = {
            "version": 1,
            "scenario": "serve",
            "op_kind": "insert+lookup",
            "engine": "asyncio-tcp",
            "nodes": len(net),
            "seed": seed,
            "workers": workers,
            "ops": ops,
            "lookup_failures": len(failures),
            "audit_violations": len(view["audit_violations"]),
            # Classified transport-failure counters (all deterministic:
            # a clean localhost serve observes zero of each).
            "wire": transport.wire.snapshot(),
            "checksum": checksum,
            "timing": {
                "wall_s": round(wall_s, 3),
                "insert_s": round(insert_s, 3),
                "lookup_s": round(lookup_s, 3),
                "ops_per_sec": round(ops / (insert_s + lookup_s), 1),
                "peak_rss_kb": _peak_rss_kb(),
            },
        }
        # Durable-only keys: a plain (in-memory) serve record stays
        # byte-compatible with the committed BENCH_serve.json.
        if durability is not None:
            record["durability"] = durability
        return record
    except KeyboardInterrupt:
        interrupted = True
        record = {
            "version": 1,
            "scenario": "serve",
            "engine": "asyncio-tcp",
            "seed": seed,
            "interrupted": True,
        }
        return record
    finally:
        shutdown = graceful_shutdown(transport, net)
        # Mutating the record in the finally block is visible to the
        # caller: the return value is already bound to this dict.
        if record is not None and (interrupted or data_dir is not None):
            record["shutdown"] = shutdown
        if prev_term is not None:
            signal.signal(signal.SIGTERM, prev_term)


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
