"""Span tracing from outside the program: class-attribute wrappers per layer.

``Tracer.install()`` replaces the public callables of each layer (this
repo's modules) with timing wrappers; ``uninstall()`` puts the originals
back.  Nothing in ``src/`` knows about it, and an untraced run never
imports this module's wrappers into ``repro``.

Every wrapped call is a span: name, start, end, parent, client-op id.
Spans nest on one *global* stack, not one per thread: the client is closed
loop, so at any instant exactly one thread is doing the operation's work
(on TCP the others are blocked in a send), and a handler span that starts
on an executor thread while the client thread waits inside
``AsyncioTransport.send`` is by construction that send's child.  A pop that
does not find its own frame on top counts a ``nesting_violation`` (expected
0).  Self time = span - children, so for ``net.asyncio_transport`` self
time is socket + thread hop + loop scheduling + node lock: everything in
the send interval that is not handler or codec work.

Tens of millions of spans do not fit in memory, so self time and call
counts are folded into per-(kind, layer) sums as each span closes, and
full spans are kept only for the first operations of each kind (a bounded
sample), written to ``bench/out/<workload>.trace.json`` at exit.
``pastry.idspace`` is count-only: its ~20 M calls stay inside their
callers' self time.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from workloads import KINDS

#: The 13 timed layers, then the count-only one.
TIMED_LAYERS = (
    "core.network", "core.node", "core.storage", "core.cache", "security",
    "pastry.network", "pastry.node", "pastry.leafset", "pastry.routingtable",
    "netsim.topology", "net.asyncio_transport", "net.codec", "store.wal",
)
COUNT_LAYER = "pastry.idspace"
LAYERS = TIMED_LAYERS + (COUNT_LAYER,)

#: Full spans kept per kind for the trace file.
SAMPLE_SPANS_PER_KIND = 4000

#: Allowed gap between a kind's root span time and the sum of layer self times.
SELF_SUM_TOLERANCE = 0.10


def _targets() -> List[Tuple[str, object, Tuple[str, ...]]]:
    """(layer, class or module, attribute names) for every wrapped callable."""
    from repro.core.cache import CacheManager
    from repro.core.network import PastNetwork
    from repro.core.node import PastNode
    from repro.core.storage import LocalStore
    from repro.net.asyncio_transport import AsyncioTransport
    from repro.net.codec import WireCodec
    from repro.netsim import topology
    from repro.pastry.leafset import LeafSet
    from repro.pastry.network import PastryNetwork
    from repro.pastry.node import PastryNode
    from repro.pastry.routingtable import RoutingTable
    from repro.security.certificates import (
        FileCertificate, ReclaimCertificate, ReclaimReceipt, StoreReceipt,
    )
    from repro.security.identity import NodeIdentity
    from repro.security.smartcard import Smartcard
    from repro.store.vfs import AppendFile
    from repro.store.wal import WalBackend

    out = [
        ("core.network", PastNetwork, (
            "insert", "lookup", "reclaim", "add_node", "fail_node", "recover_node",
            "crash_node", "process_failure_detection")),
        ("core.node", PastNode, (
            "coordinate_insert", "accept_replica", "accept_diverted_replica",
            "coordinate_reclaim", "reclaim_local", "deliver", "forward",
            "on_node_joined", "on_node_failed", "cache_routed_file",
            "receive_join_offer", "replicate_file", "apply_member_repair",
            "request_repair", "maybe_discard", "on_diverted_target_failed",
            "on_referrer_failed", "abort_replica", "drop_pointer_and_deref")),
        ("core.storage", LocalStore, (
            "store_replica", "drop_replica", "can_accept", "verify_replica",
            "install_pointer", "add_pointer", "drop_pointer", "set_pointer_primary",
            "verified_cache_hit", "holds_file", "file_ids")),
        ("core.cache", CacheManager, ("lookup", "consider", "remove", "shrink_to")),
        ("security", Smartcard, (
            "issue_file_certificate", "issue_store_receipt",
            "issue_reclaim_certificate", "issue_reclaim_receipt",
            "redeem_reclaim_receipts")),
        ("security", FileCertificate, ("verify", "verify_content")),
        ("security", StoreReceipt, ("verify",)),
        ("security", ReclaimCertificate, ("verify",)),
        ("security", ReclaimReceipt, ("verify",)),
        ("security", NodeIdentity, ("verify",)),
        ("pastry.network", PastryNetwork, (
            "route", "join", "notify_failure", "recover_node", "mark_failed",
            "k_closest_live")),
        ("pastry.node", PastryNode, (
            "next_hop", "learn", "handle_failure", "initialize_from_join",
            "exchange_leafsets", "consider_neighbor", "forget")),
        ("pastry.leafset", LeafSet, (
            "add", "add_all", "remove", "covers", "closest_to", "closest_nodes",
            "sorted_members")),
        ("pastry.routingtable", RoutingTable, ("consider", "lookup", "remove", "install_row")),
        ("net.asyncio_transport", AsyncioTransport, (
            "send", "route", "probe", "stop_server", "ensure_server")),
        ("net.codec", WireCodec, ("encode", "decode", "encode_frame")),
        ("store.wal", WalBackend, (
            "note_store", "note_drop", "note_pointer", "note_drop_pointer",
            "note_primary_flag", "note_wipe", "flush", "compact")),
        ("store.wal", AppendFile, ("write", "fsync")),
    ]
    for cls in vars(topology).values():
        if isinstance(cls, type) and "distance" in vars(cls):
            out.append(("netsim.topology", cls, ("distance",)))
    return out


class Tracer:
    """Installs the wrappers, folds closing spans, keeps a bounded sample."""

    def __init__(self):
        self.stack: List[list] = []  # open spans: [start_ns, child_ns, span id]
        self.kind = None  # index into KINDS while a client operation runs
        self.op_id = 0
        nk, nl = len(KINDS), len(LAYERS)
        self.self_ns = [[0] * nl for _ in range(nk)]
        self.calls = [[0] * nl for _ in range(nk)]
        self.root_ns = [0] * nk
        self.ops = [0] * nk
        self.violations = 0
        self.spans: List[tuple] = []
        self._sample_left = [SAMPLE_SPANS_PER_KIND] * nk
        self._sampling = False
        self._next_span = 0
        # Counts taken where the work happens (per kind where a ratio needs it).
        self.wal_records = [0] * nk
        self.fsyncs = [0] * nk
        self.fsync_ns: List[int] = []
        self.wal_bytes = [0] * nk
        self.codec_bytes = 0
        self.rpcs = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -------------------------------------------------------------- wrappers

    def _timed(self, fn: Callable, layer: str, name: str, post=None) -> Callable:
        li = LAYERS.index(layer)
        stack, now, tracer = self.stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0, 0, 0]
            if tracer._sampling:
                tracer._next_span += 1
                frame[2] = tracer._next_span
            stack.append(frame)
            frame[0] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                top = stack.pop()
                if top is not frame:
                    tracer._unwind(frame, top)
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                kind = tracer.kind
                if kind is not None:
                    tracer.self_ns[kind][li] += dur - frame[1]
                    tracer.calls[kind][li] += 1
                    if frame[2]:
                        tracer._keep(name, frame, end)
            if post is not None and kind is not None:
                post(tracer, kind, dur, result, args)
            return result

        return wrapper

    def _counted(self, fn: Callable) -> Callable:
        li, tracer = LAYERS.index(COUNT_LAYER), self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = tracer.kind
            if kind is not None:
                tracer.calls[kind][li] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _unwind(self, frame: list, popped: list) -> None:
        """``frame`` closed while ``popped`` was on top: two threads worked at
        once, so the closed-loop assumption broke.  Count it, keep going."""
        self.violations += 1
        if frame in self.stack:
            self.stack.remove(frame)
            self.stack.append(popped)

    def _keep(self, name: str, frame: list, end: int) -> None:
        parent = self.stack[-1][2] if self.stack else 0
        self.spans.append((
            frame[2], parent, self.op_id, KINDS[self.kind], name,
            frame[0], end, threading.get_ident(),
        ))

    def client_op(self, kind: str, op: Callable) -> Callable:
        """Wrap a phase's operation in its root ("client") span."""
        ki = KINDS.index(kind)
        stack, now, tracer = self.stack, time.perf_counter_ns, self

        def root(item):
            tracer.kind = ki
            tracer.op_id += 1
            tracer._sampling = tracer._sample_left[ki] > 0
            frame = [0, 0, 0]
            if tracer._sampling:
                tracer._next_span += 1
                frame[2] = tracer._next_span
            before = len(tracer.spans)
            stack.append(frame)
            frame[0] = now()
            try:
                return op(item)
            finally:
                end = now()
                top = stack.pop()
                if top is not frame:
                    tracer._unwind(frame, top)
                tracer.root_ns[ki] += end - frame[0]
                tracer.ops[ki] += 1
                if frame[2]:
                    tracer._keep(f"client.{kind}", frame, end)
                    tracer._sample_left[ki] -= len(tracer.spans) - before
                tracer._sampling = False
                tracer.kind = None  # the oracle and audits between operations are not traced

        return root

    # ------------------------------------------------------- install / remove

    def install(self) -> None:
        from repro.net.asyncio_transport import AsyncioTransport
        from repro.net.codec import WireCodec
        from repro.pastry import idspace
        from repro.store.vfs import AppendFile
        from repro.store.wal import WalBackend

        posts = {
            (AppendFile, "write"): _post_wal_write,
            (AppendFile, "fsync"): _post_fsync,
            (WireCodec, "encode_frame"): _post_encoded,
            (WireCodec, "decode"): _post_decoded,
        }
        for layer, owner, names in _targets():
            for attr in names:
                post = posts.get((owner, attr))
                if owner is WalBackend and attr.startswith("note_"):
                    post = _post_wal_record
                self._patch(owner, attr, self._timed(
                    vars(owner)[attr], layer, f"{layer}:{owner.__name__}.{attr}", post))
        for attr, fn in list(vars(idspace).items()):
            if callable(fn) and getattr(fn, "__module__", None) == idspace.__name__:
                self._patch(idspace, attr, self._counted(fn))
        # Every encoded round trip (chained route legs and pings included).
        request = vars(AsyncioTransport)["_request"]

        @functools.wraps(request)
        def counted_request(*args, **kwargs):
            self.rpcs += 1
            return request(*args, **kwargs)

        self._patch(AsyncioTransport, "_request", counted_request)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- results

    def finish(self, path: Path) -> dict:
        """Self-check, write the span sample, return the folded sums."""
        check = {}
        for ki, kind in enumerate(KINDS):
            layers = sum(self.self_ns[ki][: len(TIMED_LAYERS)])
            root = self.root_ns[ki]
            gap = abs(root - layers) / root if root else 0.0
            check[kind] = gap
            if gap > SELF_SUM_TOLERANCE:
                raise RuntimeError(
                    f"trace self-check: {kind} layer self times sum to {layers} ns, "
                    f"root spans to {root} ns (gap {gap:.1%})"
                )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({
                "fields": ["span", "parent", "op", "kind", "name", "start_ns", "end_ns", "thread"],
                "spans": self.spans,
            }, out)
        return {
            "self_ns": self.self_ns,
            "calls": self.calls,
            "root_ns": self.root_ns,
            "ops": self.ops,
            "self_check_gap": check,
            "nesting_violations": self.violations,
            "wal_records": self.wal_records,
            "fsyncs": self.fsyncs,
            "fsync_us_p50": statistics.median(self.fsync_ns) / 1e3 if self.fsync_ns else 0.0,
            "wal_bytes": self.wal_bytes,
            "codec_bytes": self.codec_bytes,
            "rpcs": self.rpcs,
            "spans_sampled": len(self.spans),
        }


# Counts taken where the work happens, inside client operations only.

def _post_wal_record(tracer: Tracer, kind, dur, result, args) -> None:
    tracer.wal_records[kind] += 1


def _post_wal_write(tracer: Tracer, kind, dur, result, args) -> None:
    tracer.wal_bytes[kind] += len(args[1])


def _post_fsync(tracer: Tracer, kind, dur, result, args) -> None:
    tracer.fsyncs[kind] += 1
    tracer.fsync_ns.append(dur)


def _post_encoded(tracer: Tracer, kind, dur, result, args) -> None:
    tracer.codec_bytes += len(result)


def _post_decoded(tracer: Tracer, kind, dur, result, args) -> None:
    tracer.codec_bytes += len(args[1])


def layer_metric_names() -> Dict[str, str]:
    """name -> unit of every per-layer metric a traced run emits."""
    names = {}
    for layer in TIMED_LAYERS:
        for kind in KINDS:
            names[f"{layer}.{kind}_self_us"] = "us"
    for kind in KINDS:
        names[f"{COUNT_LAYER}.{kind}_calls"] = "count"
    for layer in LAYERS:
        names[f"{layer}.calls_per_op"] = "count"
    names.update({
        "core.cache.hit_ratio": "ratio",
        "core.cache.evictions_per_kop": "count",
        "core.node.replica_diversions_per_insert": "count",
        "core.network.file_diversions_per_insert": "count",
        "pastry.network.hops_per_route": "hops",
        "pastry.network.routes_per_op": "count",
        "net.asyncio_transport.rpcs_per_op": "count",
        "net.asyncio_transport.wire_overhead_us_per_rpc": "us",
        "net.codec.bytes_per_op": "bytes",
        "store.wal.records_per_insert": "count",
        "store.wal.bytes_per_user_byte": "ratio",
        "store.wal.fsyncs_per_insert": "count",
        "store.wal.fsync_us_p50": "us",
        "client.trace_overhead_ratio": "ratio",
    })
    return names


def layer_metrics(traced: dict, plain: dict) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics from a traced pass and its untraced twin.

    Self times are rescaled to reference-core microseconds by each phase's
    own calibrated/wall ratio, like the end-to-end numbers.
    """
    t = traced["trace"]
    units = layer_metric_names()
    values: Dict[str, float] = {}
    total_ops = sum(t["ops"]) or 1
    for ki, kind in enumerate(KINDS):
        phase = traced["phases"][kind]
        ops = t["ops"][ki] or 1
        to_ref_us = (phase["ref_s"] / phase["wall_s"]) / 1e3 if phase["wall_s"] else 0.0
        for li, layer in enumerate(TIMED_LAYERS):
            values[f"{layer}.{kind}_self_us"] = t["self_ns"][ki][li] * to_ref_us / ops
        values[f"{COUNT_LAYER}.{kind}_calls"] = t["calls"][ki][len(TIMED_LAYERS)] / ops
    for li, layer in enumerate(LAYERS):
        values[f"{layer}.calls_per_op"] = sum(row[li] for row in t["calls"]) / total_ops

    inserts = t["ops"][KINDS.index("insert")] or 1
    transport_li = TIMED_LAYERS.index("net.asyncio_transport")
    transport_ns = sum(row[transport_li] for row in t["self_ns"])
    cache = traced["cache"]
    timed_ref = sum(p["ref_s"] for p in traced["phases"].values())
    timed_wall = sum(p["wall_s"] for p in traced["phases"].values())
    plain_ref = sum(p["ref_s"] for p in plain["phases"].values())
    values.update({
        "core.cache.hit_ratio": cache["hits"] / ((cache["hits"] + cache["misses"]) or 1),
        "core.cache.evictions_per_kop": 1000.0 * cache["evictions"] / total_ops,
        "core.node.replica_diversions_per_insert": traced["replica_diversions"] / inserts,
        "core.network.file_diversions_per_insert": traced["file_diversions"] / inserts,
        "pastry.network.hops_per_route":
            traced["routes"]["hops"] / (traced["routes"]["routes"] or 1),
        "pastry.network.routes_per_op": traced["routes"]["routes"] / total_ops,
        "net.asyncio_transport.rpcs_per_op": t["rpcs"] / total_ops,
        "net.asyncio_transport.wire_overhead_us_per_rpc":
            transport_ns * (timed_ref / timed_wall) / 1e3 / t["rpcs"] if t["rpcs"] else 0.0,
        "net.codec.bytes_per_op": t["codec_bytes"] / total_ops,
        "store.wal.records_per_insert": t["wal_records"][KINDS.index("insert")] / inserts,
        "store.wal.bytes_per_user_byte":
            t["wal_bytes"][KINDS.index("insert")] / (traced["user_bytes"] or 1),
        "store.wal.fsyncs_per_insert": t["fsyncs"][KINDS.index("insert")] / inserts,
        "store.wal.fsync_us_p50": t["fsync_us_p50"],
        "client.trace_overhead_ratio": timed_ref / plain_ref if plain_ref else 0.0,
    })
    assert set(values) == set(units), set(values) ^ set(units)
    return {name: (values[name], units[name]) for name in units}
