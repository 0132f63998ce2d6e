"""One pass of one workload, in this process; prints one JSON record.

Started by ``run.py`` in a fresh interpreter with ``PYTHONHASHSEED=0``.
The process pins itself to one CPU *before* importing ``repro`` so that
every thread the TCP engine later creates lands on that CPU too (unpinned,
the asyncio loop / executor / client threads of ``AsyncioTransport`` land
on one vCPU or two at random, and the same script runs at 3 or 7 ms per
insert).  Load is one closed-loop client in this thread.

Phases: import -> set-up x R -> the workload's timed phases -> untimed
verification (probe lookups, invariant audit, outcome checksum).  With
``--traced`` the wrappers of :mod:`trace` are installed first and removed
at the end; without it nothing in ``repro`` is patched.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import socket
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

import workloads as wl  # noqa: E402  (bench/ is sys.path[0])
from measure import Phase, calibration_gauge  # noqa: E402


class Session:
    """One built deployment plus the client state the oracle needs."""

    def __init__(self, workload: wl.Workload, inputs: wl.Inputs, seed: int, tmp: Path):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.tmp = tmp
        self.net = None
        self.transport = None
        self.owner = None
        self.node_ids = []
        self.client_nodes = None
        self.fids = {}  # file index -> fileId of the accepted insert
        self.live = []  # accepted, not yet reclaimed, in insert order
        self.reclaimed = []
        self._gone = set()  # reclaimed since `live`/`fids` were last pruned
        self.contents = {}
        # Outcome accounting (all outside timed blocks).
        self.attempted = 0
        self.ok = 0
        self.accepted = 0
        self.insert_attempts = 0
        self.lookups = 0
        self.lookup_hops = 0
        self.cache_served = 0
        self.replica_diversions = 0
        self.file_diversions = 0
        self.user_bytes = 0
        self.utilization = 0.0
        self.digest = hashlib.sha256()

    # ----------------------------------------------------------------- build

    def build(self, timer: Phase) -> None:
        """Bootstrap the overlay in calibrated blocks of BUILD_BLOCK joins."""
        from repro.core import PastConfig, PastNetwork

        w = self.workload
        config = PastConfig(seed=self.seed, cache_policy=w.cache_policy)
        if w.engine == "tcp":
            from repro.net.differential import build_cluster

            self.net, self.transport = timer.add_timed(
                lambda: build_cluster(
                    w.nodes, self.seed, engine="asyncio", data_dir=self.tmp, config=config
                )
            )
        else:
            topology = None
            if w.sites:
                from repro.netsim.topology import ClusteredTopology

                topology = ClusteredTopology(w.sites, seed=self.seed)
            net = self.net = PastNetwork(config, topology=topology)
            caps = self.inputs.capacities
            for start in range(0, len(caps), wl.BUILD_BLOCK):
                timer.add_timed(
                    lambda: [
                        net.add_node(caps[i], cluster=self._cluster(i))
                        for i in range(start, min(start + wl.BUILD_BLOCK, len(caps)))
                    ]
                )
        self.owner = self.net.create_client("bench-client")
        self._refresh_nodes()

    def _cluster(self, i: int):
        return i % self.workload.sites if self.workload.sites else None

    def _refresh_nodes(self) -> None:
        self.node_ids = sorted(self.net.pastry.node_ids)
        if self.workload.sites and self.client_nodes is None:
            # Trace clients live on nodes of their own site's cluster, as
            # in the paper's mapping of the eight NLANR proxies.
            by_site = {}
            for node in self.net.nodes():
                by_site.setdefault(node.pastry.coord.cluster, []).append(node.node_id)
            self.client_nodes = []
            for client in range(self.inputs.n_clients):
                pool = sorted(by_site.get(client % self.workload.sites) or self.node_ids)
                self.client_nodes.append(pool[(client * 7919) % len(pool)])

    def client(self, c: int) -> int:
        if self.client_nodes is not None:
            return self.client_nodes[c % len(self.client_nodes)]
        return self.node_ids[c % len(self.node_ids)]

    def close(self) -> None:
        if self.transport is not None:
            from repro.net.differential import graceful_shutdown

            graceful_shutdown(self.transport, self.net)
            self.transport = None
        shutil.rmtree(self.tmp, ignore_errors=True)

    # ------------------------------------------------------------ operations

    def phase_items(self, kind: str) -> list:
        """Resolve a phase's pre-generated inputs against current state."""
        inp, n = self.inputs, self.workload.phase(kind).ops
        self._refresh_nodes()
        self._prune()
        if kind == "insert":
            return [(i, name, size, content, self.client(c))
                    for i, name, size, content, c in inp.inserts]
        if kind == "lookup":
            if self.workload.sites:
                pairs = ((self.fids.get(f), c) for f, c in inp.lookups)
                return [(fid, self.client(c)) for fid, c in pairs if fid is not None]
            live = self.live
            return [(live[f % len(live)], self.client(c)) for f, c in inp.lookups]
        if kind == "reclaim":
            order = sorted(self.fids, key=lambda i: (inp.reclaim_order[i], i))
            keep = max(2, len(order) // 20)  # files left for churn/join to move
            chosen = order[: max(0, min(n, len(order) - keep))]
            return [(self.fids[i], self.client(inp.reclaim_clients[j]))
                    for j, i in enumerate(chosen)]
        if kind == "join":
            if self.workload.engine == "tcp":
                from repro.net.differential import NODE_CAPACITY

                return [(NODE_CAPACITY, None)] * n
            return [(cap, self._cluster(j)) for j, cap in enumerate(inp.join_capacities)]
        return list(inp.churn_victims)  # churn

    def _prune(self) -> None:
        if self._gone:
            self.live = [f for f in self.live if f not in self._gone]
            self.fids = {i: f for i, f in self.fids.items() if f not in self._gone}
            self._gone = set()

    def op(self, kind: str):
        net, owner = self.net, self.owner
        if kind == "insert":
            if self.workload.engine == "tcp":
                return lambda it: net.insert(it[1], owner, content=it[3], client_id=it[4])
            return lambda it: net.insert(it[1], owner, it[2], it[4])
        if kind == "lookup":
            return lambda it: net.lookup(it[0], it[1])
        if kind == "reclaim":
            return lambda it: net.reclaim(it[0], owner, it[1])
        if kind == "join":
            return lambda it: net.add_node(it[0], cluster=it[1])
        ids = self.node_ids
        if self.transport is None:
            def churn(draw):
                victim = ids[draw % len(ids)]
                net.fail_node(victim)
                net.recover_node(victim)
                return victim
        else:
            transport = self.transport

            def churn(draw):
                # fail_node with the victim's server stopped in between,
                # as a killed process would be (cf. differential._restart_from_wal).
                victim = ids[draw % len(ids)]
                net.crash_node(victim)
                transport.stop_server(victim)
                net.process_failure_detection(victim)
                net.recover_node(victim)
                transport.ensure_server(victim)
                return victim
        return churn

    # ---------------------------------------------------------------- oracle

    def check(self, kind: str):
        """The per-block oracle for ``kind``: counts outcomes, folds the checksum."""
        return getattr(self, f"_check_{kind}")

    def _fold(self, *parts) -> None:
        self.digest.update((" ".join(str(p) for p in parts) + "\n").encode("ascii"))

    def _count(self, good: bool) -> None:
        self.attempted += 1
        self.ok += bool(good)

    def _check_insert(self, chunk, results) -> None:
        for (index, _name, size, content, _client), r in zip(chunk, results):
            self.insert_attempts += 1
            if isinstance(r, Exception):
                self._count(False)
                self._fold("insert", index, "raised", type(r).__name__)
                continue
            if r.success:
                good = r.file_id is not None and len(r.receipts) >= wl.K
                self.fids[index] = r.file_id
                self.live.append(r.file_id)
                self.accepted += 1
                self.user_bytes += size
                if content is not None:
                    self.contents[r.file_id] = content
            else:
                good = bool(r.failure_reason)  # saturation: refused, with a reason
            self.replica_diversions += r.replica_diversions
            self.file_diversions += r.attempts - 1
            self._count(good)
            self._fold("insert", index, int(r.success), r.file_id, r.attempts,
                       r.replica_diversions, r.hops)
        self.utilization = self.net.utilization()

    def _lookup_ok(self, fid: int, r) -> bool:
        if isinstance(r, Exception) or not r.success:
            return False
        if r.certificate is None or r.certificate != self.net.certificate_of(fid):
            return False
        return fid not in self.contents or r.content == self.contents[fid]

    def _check_lookup(self, chunk, results) -> None:
        for (fid, _client), r in zip(chunk, results):
            self._count(self._lookup_ok(fid, r))
            self.lookups += 1
            if isinstance(r, Exception):
                self._fold("lookup", fid, "raised", type(r).__name__)
                continue
            self.lookup_hops += r.hops
            self.cache_served += r.source == "cache"
            self._fold("lookup", fid, int(r.success), r.hops, r.responder_id, r.source)

    def _check_reclaim(self, chunk, results) -> None:
        for (fid, _client), r in zip(chunk, results):
            good = not isinstance(r, Exception) and r.success and len(r.receipts) > 0
            self._count(good)
            self._fold("reclaim", fid, int(good))
            if good:
                self._gone.add(fid)
                self.reclaimed.append(fid)

    def _check_join(self, chunk, results) -> None:
        for _item, r in zip(chunk, results):
            good = not isinstance(r, Exception) and len(r) > 0
            self._count(good)
            self._fold("join", [n.node_id for n in r] if good else "raised")

    def _check_churn(self, chunk, results) -> None:
        for _item, r in zip(chunk, results):
            good = not isinstance(r, Exception)
            self._count(good)
            self._fold("churn", r if good else "raised")

    def audit_phase(self, ops: int) -> bool:
        """Membership phases end at quiescence: after the maintenance pass the
        repo's own oracles run first (experiments/chaos.py: failure detection
        to fixpoint, ``repair_all()``, then audit), the overlay audit must
        hold, or every operation of the phase counts as failed.  Untimed."""
        from repro import audit

        self.net.repair_all()
        report = audit(self.net, check_overlay=True)
        if not report.ok:
            self.ok -= min(ops, self.ok)
            shown = [f"{v.kind}: {v.detail}" for v in report.violations[:5]]
            self._fold("audit", shown)
            print(f"audit failed ({len(report.violations)} violations):", *shown,
                  sep="\n  ", file=sys.stderr)
        return report.ok

    def verify(self) -> bool:
        """Untimed end-of-run probes: live files answer, reclaimed ones do not
        (or only from a cache: reclaim is weaker than delete, paper 2.2)."""
        self._refresh_nodes()
        self._prune()
        probe = self.node_ids[0]
        for fid in self.live[:: max(1, len(self.live) // 300)]:
            r = self.net.lookup(fid, probe)
            self._count(self._lookup_ok(fid, r))
            self._fold("probe", fid, int(r.success))
        for fid in self.reclaimed[:: max(1, len(self.reclaimed) // 100)]:
            r = self.net.lookup(fid, probe)
            self._count(not r.success or r.source == "cache")
            self._fold("probe-reclaimed", fid, int(r.success))
        good = self.audit_phase(0)
        self.attempted += 1
        self.ok += good
        for node in sorted(self.net.nodes(), key=lambda n: n.node_id):
            store = node.store
            self._fold(
                "node", node.node_id, sorted(store.primaries), sorted(store.diverted_in),
                sorted((f, p.target_id) for f, p in store.pointers.items()),
                sorted(store.cache.files()),
            )
        return good

    def cache_counters(self) -> dict:
        caches = [n.store.cache for n in self.net.nodes()]
        return {
            "hits": sum(c.hits for c in caches),
            "misses": sum(c.misses for c in caches),
            "evictions": sum(c.evictions for c in caches),
        }


def naive_wire_rtt_us(rounds: int = 300) -> float:
    """Yardstick: connect-per-request, json.dumps, one recv (SNIPPETS.md 1's wire shape)."""
    payload = {"command": "lookup", "payload": {"file_id": "f" * 40, "path": list(range(4)),
                                                 "certificate": "c" * 400}}
    server = socket.create_server(("127.0.0.1", 0))

    def serve():
        for _ in range(rounds):
            conn, _addr = server.accept()
            with conn:
                conn.sendall(conn.recv(4096 * 4))

    thread = threading.Thread(target=serve, name="naive-echo")
    thread.start()
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        with socket.create_connection(server.getsockname()) as s:
            s.sendall(json.dumps(payload).encode("utf-8"))
            json.loads(s.recv(4096 * 4))
        samples.append(time.perf_counter() - start)
    thread.join()
    server.close()
    return 1e6 * statistics.median(samples)


def _import_repro() -> None:
    """Everything any workload touches, so no import lands inside a later phase."""
    import repro  # noqa: F401
    import repro.net.differential  # noqa: F401
    import repro.netsim.topology  # noqa: F401
    import repro.workloads  # noqa: F401


def _assert_unpatched() -> None:
    """An untraced run patches nothing; a traced one has put everything back."""
    from repro.core import PastNetwork

    code = PastNetwork.insert.__code__
    if code.co_name != "insert" or not code.co_filename.endswith("network.py"):
        raise RuntimeError(f"PastNetwork.insert is not the original function: {code}")


def main(argv=None) -> int:
    start_wall = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--setups", type=int, default=wl.SETUP_REPEATS)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):  # Linux; elsewhere the run is merely noisier
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    workload = wl.scaled(wl.WORKLOADS[args.workload], args.scale, args.nodes)

    # ---- import (part of set-up: a user pays it on every start)
    importing = Phase("import", keep_latencies=False)
    importing.add_timed(_import_repro)
    tracer = None
    if args.traced:
        import trace as bench_trace  # bench/trace.py (sys.path[0] shadows the stdlib one)

        tracer = bench_trace.Tracer()
        tracer.install()

    # ---- set-up, repeated; the last deployment is the one measured
    tmp_root = BENCH_DIR / "out" / f"tmp-{os.getpid()}"
    setups = []
    session = None
    try:
        for rep in range(args.setups):
            if session is not None:
                session.close()
                session = None
                gc.collect()
            timer = Phase("setup", keep_latencies=False)
            inputs = timer.add_timed(lambda: wl.generate(workload, args.seed))
            session = Session(workload, inputs, args.seed, tmp_root / f"rep{rep}")
            session.build(timer)
            setups.append(timer)
        setup_s = importing.ref_s + statistics.median(t.ref_s for t in setups)
        overlay_stats = session.net.pastry.stats
        routes0, hops0 = overlay_stats.routes, overlay_stats.hops

        # ---- timed phases
        phases = {}
        for spec in workload.phases:
            items = session.phase_items(spec.kind)
            op = session.op(spec.kind)
            if tracer is not None:
                op = tracer.client_op(spec.kind, op)
            phase = phases[spec.kind] = Phase(
                spec.kind, keep_latencies=spec.kind in ("insert", "lookup")
            )
            phase.run(items, spec.block, op, session.check(spec.kind))
            if spec.kind in ("join", "churn"):
                session.audit_phase(phase.ops)
        audit_ok = session.verify()
        cache = session.cache_counters()
        routes = {"routes": overlay_stats.routes - routes0, "hops": overlay_stats.hops - hops0}
        naive_us = naive_wire_rtt_us() if workload.engine == "tcp" else 0.0
    finally:
        if session is not None:
            session.close()
        shutil.rmtree(tmp_root, ignore_errors=True)

    cals = [c for p in phases.values() for c in p.calibrations]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.traced),
        "nodes": len(session.net),
        "setup_s": setup_s,
        "phases": {k: p.summary() for k, p in phases.items()},
        "attempted": session.attempted,
        "ok": session.ok,
        "audit_ok": audit_ok,
        "insert_accept_ratio": session.accepted / max(1, session.insert_attempts),
        "storage_utilization": session.utilization,
        "cache_miss_ratio": 1.0 - session.cache_served / max(1, session.lookups),
        "lookup_hops_mean": session.lookup_hops / max(1, session.lookups),
        "replica_diversions": session.replica_diversions,
        "file_diversions": session.file_diversions,
        "user_bytes": session.user_bytes,
        "cache": cache,
        "routes": routes,
        "calibration": calibration_gauge(cals),
        "naive_wire_rtt_us": naive_us,
        "checksum": session.digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["trace"] = tracer.finish(BENCH_DIR / "out" / f"{workload.name}.trace.json")
        tracer.uninstall()
    _assert_unpatched()
    record["run_wall_s"] = time.perf_counter() - start_wall
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
