"""Real-network implementation of the transport seam over localhost TCP.

:class:`AsyncioTransport` keeps the contract of :mod:`repro.netsim.transport`,
so the engine-pure ``PastNode``/``PastryNode`` logic the simulator runs
serves real concurrent traffic.  Every direct RPC and routed message goes
through the schema-pinned :class:`~repro.net.codec.WireCodec`; a node
talking to itself skips the socket but never the codec, so a payload that
cannot survive encoding fails the call.

Threads (DESIGN.md §4i): the calling thread takes a route's first step
and does each leg's blocking socket I/O; one selector thread accepts,
reads and frames for every node's listener; each complete frame goes to
a handler thread of one bounded pool, which decodes it, dispatches it
under the node's lock and sends the reply itself.

Where it differs from ``SimTransport``: a route's h overlay hops are h
socket round trips; faults come from the simulator's own
:class:`~repro.netsim.faults.FaultPlan` (``install_faults``, skipped by
``reliable=True`` as in the simulator) plus mid-frame resets drawn from
the transport's own RNG; and the real network can fail any call, under
the failure discipline of DESIGN.md §4k.

The module keeps the name it had when an asyncio loop ran the server
side (``engine="asyncio"``, ``"asyncio-tcp"`` in pinned records); no
asyncio is imported.
"""

from __future__ import annotations

import random
import selectors
import socket
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.seeding import derive_seed
from ..netsim.faults import FaultPlan, Transmission
from ..pastry.network import MAX_ROUTE_HOPS, RouteResult, RoutingError
from .codec import CodecError, WireCodec, take_frame

__all__ = [
    "AsyncioTransport",
    "Backpressure",
    "InjectedLoss",
    "InjectedReset",
    "RemoteCallError",
    "WireStats",
]

#: Deadline multiplier for a route's chained leg, which blocks until the
#: rest of the chain returns (overlay routes are O(log n) hops; deeper
#: chains fail the leg, report it lost, and let the client retry).
ROUTE_DEADLINE_LEGS = 8

#: Seconds one RPC leg may take.
RPC_TIMEOUT = 30.0

#: Per-peer in-flight high-water mark (sends past it are rejected).
POOL_LIMIT = 32

#: Re-dials of a refused live peer, and the first backoff they double.
RECONNECT_ATTEMPTS = 3
RECONNECT_BACKOFF = 0.05

#: Handler threads (a handler blocks its thread while its nested RPCs run).
MAX_WORKERS = 64

#: Bytes asked of each reply ``recv``: a whole frame, nearly always.
_RECV_BYTES = 65536

#: How a handler's owning class is reached from the target's PastryNode.
#: Keys are the class names pinned in the wire schema's rpc table.
_TARGET_PATHS: Dict[str, Tuple[str, ...]] = {
    "PastryNode": (),
    "LeafSet": ("leafset",),
    "RoutingTable": ("routing_table",),
    "PastNode": ("app",),
    "LocalStore": ("app", "store"),
}


class RemoteCallError(RuntimeError):
    """A remote handler raised; carries the remote traceback text."""


class InjectedLoss(TimeoutError):
    """An injected drop: to the caller it looks like a lost message.

    Subclasses the builtin :class:`TimeoutError` (what a lapsed leg
    raises) so every existing retry path (``send``/``probe`` returning
    undelivered, routes reported lost) treats an injected drop exactly
    like a real timeout — but the transport classifies it separately so
    real timeouts stay visible.
    """


class InjectedReset(ConnectionResetError):
    """An injected mid-frame connection reset (the socket was torn)."""


@dataclass
class WireStats:
    """Observed failure counters for one :class:`AsyncioTransport`.

    These count what the transport *experienced* (classified causes the
    old blanket ``except`` swallowed); the injected-fault counters live
    on the installed :class:`FaultPlan`'s ``stats``.
    """

    #: RPCs whose reply never arrived inside the deadline.
    timeouts: int = 0
    #: Connections torn mid-call (peer closed with the frame half-read).
    resets: int = 0
    #: Connections refused outright (no server behind the port).
    refused: int = 0
    #: Successful re-dials after a refused/failed checkout.
    reconnects: int = 0
    #: Sends rejected by per-peer backpressure (over the high-water mark).
    rejected: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Counter dict for JSON records (insertion order is fixed)."""
        return {
            "timeouts": self.timeouts,
            "resets": self.resets,
            "refused": self.refused,
            "reconnects": self.reconnects,
            "rejected": self.rejected,
        }


class Backpressure(ConnectionError):
    """A send rejected at the per-peer in-flight high-water mark.

    Subclasses :class:`ConnectionError` so the callers' existing
    ``except OSError`` recovery paths treat an overloaded peer like an
    unreachable one: the RPC is undelivered and the client's retry
    policy decides what happens next.  Rejecting (instead of queueing)
    keeps an overloaded peer from accumulating unbounded waiters.
    """


def _left(expiry: float) -> float:
    """Seconds left of an RPC's one expiry, for its next blocking step."""
    remaining = expiry - time.perf_counter()
    if remaining <= 0.0:
        raise socket.timeout("RPC deadline passed")
    return remaining


def _exchange(sock: socket.socket, blob: bytes, expiry: float) -> bytes:
    """Send one frame and read the reply's payload, all before ``expiry``."""
    sock.settimeout(_left(expiry))
    sock.sendall(blob)
    buf = bytearray()
    while True:
        chunk = sock.recv(_RECV_BYTES)
        if not chunk:
            raise ConnectionResetError("peer closed mid-call")
        buf += chunk
        payload = take_frame(buf)  # CodecError on an oversize prefix
        if payload is not None:
            if buf:
                raise CodecError(f"{len(buf)} bytes after the reply frame")
            return payload
        sock.settimeout(_left(expiry))


class _Accepted:
    """One accepted connection, as the server side sees it.

    Frames are served in order, as the lock-step client expects: while
    one is in service (``busy``) later bytes only accumulate in
    ``buffer``, and the handler thread that replied takes the next
    buffered frame or clears ``busy``.  The selector thread and that
    handler thread touch these fields only under the transport's ``_io``
    lock, so a frame that lands while the handler looks cannot be
    stranded.  A severed connection is ``closed``; a busy one's socket
    is closed by its handler thread, once that has replied.
    """

    __slots__ = ("sock", "node_id", "buffer", "busy", "closed")

    def __init__(self, sock: socket.socket, node_id: int):
        self.sock = sock
        self.node_id = node_id
        self.buffer = bytearray()
        self.busy = False
        self.closed = False


class AsyncioTransport:
    """Transport seam over localhost TCP, one listening socket per node."""

    #: The clock behind :meth:`now` is wall time: engine-agnostic
    #: deadline code (``core.resilience``) may bound operations by it.
    realtime = True

    def __init__(
        self,
        overlay: Any,
        host: str = "127.0.0.1",
        seed: int = 0,
    ):
        if getattr(overlay, "fault_plan", None) is not None:
            raise RuntimeError(
                "AsyncioTransport refuses a FaultPlan on the overlay: "
                "install it on the transport with install_faults"
            )
        self.overlay = overlay
        self.host = host
        self.timeout = RPC_TIMEOUT
        self.pool_limit = POOL_LIMIT
        #: Installed fault plan (None = zero-cost clean wire), the
        #: probability a surviving leg is torn mid-frame, and the RNG
        #: that draws it (never the plan's, so resets move no verdict).
        self.faults: Optional[FaultPlan] = None
        self._reset = 0.0
        self._reset_rng: Optional[random.Random] = None
        #: Classified failure counters (satellite of the fault plane:
        #: refused vs reset vs timeout, reconnects, rejected sends).
        self.wire = WireStats()
        self.codec = WireCodec()
        self._ports: Dict[int, int] = {}
        self._listeners: Dict[int, socket.socket] = {}
        #: Guards what concurrent callers share: free lists, in-flight
        #: counts, fault-plan and backoff draws (call order is draw
        #: order) and the wire counters.  Never held across I/O.
        self._lock = threading.Lock()
        #: Idle client sockets by the *port* they dialed: a restarted
        #: node binds a new port, so its old sockets are never reused.
        self._free: Dict[int, List[socket.socket]] = {}
        #: Per-peer in-flight RPC counts.
        self._active: Dict[int, int] = {}
        #: Accepted connections, so a kill can sever them.
        self._server_conns: Dict[int, Set[_Accepted]] = {}
        #: Nodes whose process was killed: no serve-on-first-contact
        #: resurrection until an explicit ensure_server (the restart).
        #: Like ``_ports`` and ``_listeners`` it changes only under the
        #: lifecycle lock, so a kill and a start of one node cannot
        #: interleave.
        self._down: Set[int] = set()
        #: Jittered-backoff draws for re-dials.
        self._backoff_rng = random.Random(derive_seed(seed, "wire-backoff"))
        self._t0 = time.perf_counter()
        #: Per-node dispatch locks: a node's handlers are serialized (the
        #: engine state is not thread-safe), re-entrantly so a handler's
        #: loopback self-RPC does not deadlock.
        self._locks: Dict[int, threading.RLock] = {}
        self._serving = threading.local()
        #: In-flight dispatch accounting for graceful shutdown: a drain
        #: waits for every handler that has entered _dispatch to return
        #: before the sockets close underneath it.
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self._executor = ThreadPoolExecutor(
            max_workers=MAX_WORKERS, thread_name_prefix="repro-rpc"
        )
        #: Lifecycle lock: starts, stops, kills and close, one at a time.
        #: Taken before ``_io``, never held across an RPC.
        self._life = threading.Lock()
        #: Guards the selector's registrations and every accepted
        #: connection's buffer, busy and closed fields.
        self._io = threading.Lock()
        #: The selector, its wake-up socketpair and its thread, all made
        #: with the first server; the thread count never grows with the
        #: number of nodes or connections.
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake: Tuple[socket.socket, ...] = ()
        self._selector_thread: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    def serve_all(self) -> Dict[int, int]:
        """Start one TCP server per live overlay node; returns id->port."""
        for node_id in list(self.overlay._nodes):
            self.ensure_server(node_id)
        return dict(self._ports)

    def ensure_server(self, node_id: int) -> int:
        """Start (idempotently) the server for one node; returns its port.

        Also the restart path after :meth:`stop_server`: an explicit
        ensure clears the down flag, the way a restarted process binds
        its port again.
        """
        return self._start_server(node_id, restart=True)

    def stop_server(self, node_id: int) -> None:
        """Stop a node's server (a crashed node stops answering probes).

        Models a process death: accepted connections are severed (a
        client blocked on a reply sees a reset, not a silent stall) and
        the node is marked down, so serve-on-first-contact cannot
        resurrect it — only an explicit :meth:`ensure_server` restart.
        """
        self._stop_server(node_id, kill=True)

    def install_faults(self, plan: Optional[FaultPlan], reset: float = 0.0) -> None:
        """Install (or with ``None`` remove) the fault plan legs consult.

        ``reset`` is the probability that a leg the plan let through is
        torn mid-frame instead (the client writes half a length prefix
        and drops the connection); it is drawn from an RNG derived from
        the plan's seed, and counted in ``plan.stats.resets``.
        """
        if not 0.0 <= reset <= 1.0:
            raise ValueError(f"reset must be a probability, got {reset}")
        rng = None if plan is None else random.Random(derive_seed(plan.seed, "wire-faults"))
        with self._lock:  # a leg reads the three together
            self.faults, self._reset, self._reset_rng = plan, reset, rng

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait for every in-flight dispatch to finish; True if it did.

        The graceful-shutdown half of :meth:`close`: handlers that have
        already entered a node's server finish their work (and their
        nested RPCs) before the sockets are torn down, so a durable
        backend never sees a mutation cut off mid-handler.
        """
        with self._inflight_cv:
            return self._inflight_cv.wait_for(lambda: self._inflight == 0, timeout)

    def close(self) -> None:
        """Stop every server, the selector thread and the handler pool."""
        with self._life:
            if self._closed:
                return
            self._closed = True  # from here on nothing starts a server
        for node_id in list(self._listeners):
            self._stop_server(node_id)
        if self._selector_thread is not None:
            self._wake[1].send(b"\0")  # a blocked select returns, sees _closed
            self._selector_thread.join(timeout=5)
            self._selector.close()
            for sock in self._wake:
                sock.close()
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "AsyncioTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ time plane

    def now(self) -> float:
        return time.perf_counter() - self._t0

    # --------------------------------------------------------- message plane

    def send(
        self,
        origin_id: int,
        target_id: int,
        call: Optional[Callable[..., Any]],
        *args: Any,
        reliable: bool = False,
        **kwargs: Any,
    ) -> Tuple[bool, Any]:
        self.overlay.stats.record_rpc()
        if call is None:
            # The caller already knows the target is dead: the RPC goes
            # out and times out; no server exists to answer it.
            return False, None
        handler = f"{type(call.__self__).__name__}.{call.__name__}"
        frame = {
            "op": "call",
            "handler": handler,
            "args": list(args),
            "kwargs": kwargs,
        }
        try:
            if getattr(self._serving, "node", None) == target_id:
                # Loopback self-RPC from inside this node's own handler
                # (a coordinator in its own replica set): the socket
                # would deadlock on the node's dispatch lock.
                reply = self._loopback(target_id, frame)
            else:
                reply = self._request(
                    target_id, frame,
                    link=None if reliable else (origin_id, target_id),
                )
        except (OSError, TimeoutError) as exc:
            self._note_failure(exc)
            return False, None
        if "error" in reply:
            raise RemoteCallError(
                f"{handler} on node {target_id:#x} raised:\n{reply['error']}"
            )
        return True, reply["result"]

    def probe(self, origin_id: int, peer_id: int) -> bool:
        try:
            reply = self._request(
                peer_id, {"op": "ping"}, link=(origin_id, peer_id)
            )
        except (OSError, TimeoutError) as exc:
            self._note_failure(exc)
            return False
        return bool(reply.get("ok"))

    def route(self, origin_id: int, key: int, message=None,
              collect_distance: bool = False) -> RouteResult:
        overlay = self.overlay
        if origin_id not in overlay._nodes:
            raise KeyError(f"origin {origin_id} is not a live node")
        if origin_id in self._down:
            # A killed process refuses its own client like any peer.
            self._note_failure(ConnectionRefusedError())
            reply = {"lost": True, "path": []}
        else:
            # The client is its access node (paper §2.2): the origin's
            # step runs here, and only overlay hops cross a socket.
            frame = {"op": "route", "key": key, "message": message, "path": []}
            reply = self._loopback(origin_id, frame)
        if "error" in reply:
            raise RemoteCallError(
                f"route({key:#x}) from node {origin_id:#x} raised:\n{reply['error']}"
            )
        if reply.get("lost"):
            # No hop's reply came back: the message is as it was sent.
            result = RouteResult(reply.get("path") or [], lost=True, message=message)
        else:
            result = RouteResult(
                path=reply["path"], terminus=reply["terminus"],
                intercepted=reply["intercepted"], message=reply["message"],
            )
            if collect_distance:
                result.distance = sum(
                    overlay.distance(a, b)
                    for a, b in zip(result.path, result.path[1:])
                )
        overlay.stats.record_route(result.hops, result.distance)
        return result

    # --------------------------------------------------------- driver plumbing

    def _note_failure(self, exc: BaseException) -> None:
        """Classify a swallowed transport failure into :attr:`wire` (injected
        losses are counted by the plan, rejections at the reject site)."""
        if isinstance(exc, (InjectedLoss, Backpressure)):
            return
        with self._lock:
            if isinstance(exc, TimeoutError):
                self.wire.timeouts += 1
            elif isinstance(exc, (ConnectionResetError, BrokenPipeError)):
                self.wire.resets += 1
            elif isinstance(exc, ConnectionRefusedError):
                self.wire.refused += 1

    def _request(self, target_id: int, frame: dict, legs: int = 1,
                 link: Optional[Tuple[int, int]] = None,
                 dup_ok: bool = False) -> dict:
        """One encoded round-trip to a node's server, on the calling thread.

        One expiry, ``timeout`` seconds per leg the call spans, governs
        the whole leg — injected delay, dial and re-dials, write, reply
        read: each blocking step gets what is left of it as its timeout,
        and a lapse anywhere surfaces as the builtin :class:`TimeoutError`
        (which ``socket.timeout`` is not before Python 3.10).

        ``link`` is the (src, dst) pair the fault plan is asked about;
        ``None`` legs (``reliable`` sends) are never injected.
        """
        blob = self.codec.encode_frame(frame)
        expiry = time.perf_counter() + self.timeout * legs
        faults = self.faults
        verdict = None
        reset = False
        if faults is not None and link is not None:
            with self._lock:
                verdict = faults.transmit(link[0], link[1])
                if (not verdict.lost and self._reset > 0.0
                        and self._reset_rng.random() < self._reset):
                    reset = True
                    faults.stats.resets += 1
            if verdict.lost:
                # Fail fast instead of burning the real deadline: to the
                # caller an injected drop and a timed-out reply are the
                # same undelivered RPC.  Raised outside the ``try``,
                # which would rebrand it a genuine timeout.
                raise InjectedLoss(f"injected loss on link {link[0]:#x}->{link[1]:#x}")
        try:
            if verdict is not None and verdict.delay > 0.0:
                time.sleep(min(verdict.delay, 1.0, _left(expiry)))
            payload = self._roundtrip(target_id, blob, expiry, verdict, reset, dup_ok)
        except socket.timeout:
            raise TimeoutError(f"no reply from node {target_id:#x}") from None
        return self.codec.decode(payload)

    def _roundtrip(self, target_id: int, blob: bytes, expiry: float,
                   verdict: Optional[Transmission], reset: bool,
                   dup_ok: bool) -> bytes:
        port = self._ports.get(target_id)
        if port is None:
            # Live nodes serve on first contact (a joining node's peers
            # are dialed before any explicit serve_all()); dead nodes
            # refuse, which is what probes are for.  Killed processes
            # stay dead until their explicit ensure_server restart.
            if target_id not in self.overlay._nodes or target_id in self._down:
                raise ConnectionRefusedError(f"node {target_id:#x} is not serving")
            port = self._start_server(target_id)
        with self._lock:
            active = self._active.get(target_id, 0)
            if active >= self.pool_limit:
                # Reject-not-queue: queueing would only hide the overload
                # from the caller's retry policy, which owns recovery.
                self.wire.rejected += 1
                raise Backpressure(f"node {target_id:#x}: {active} RPCs in flight")
            self._active[target_id] = active + 1
            free = self._free.get(port)
            sock = free.pop() if free else None
        keep = False
        try:
            if sock is None:
                sock, port = self._checkout(target_id, port, expiry)
            if reset:
                # Mid-frame tear: the server sees half a length prefix.
                sock.sendall(blob[:2])
                raise InjectedReset(f"injected reset on link to node {target_id:#x}")
            payload = _exchange(sock, blob, expiry)
            if dup_ok and verdict is not None and verdict.duplicate:
                # The receiver gets the frame twice (the sim's duplicated
                # hop): downstream handlers re-run; the second reply is
                # drained so the pooled socket stays frame-aligned.
                _exchange(sock, blob, expiry)
            keep = True
            return payload
        finally:
            with self._lock:
                self._active[target_id] -= 1
                # A socket that outlived its server is stale.
                keep = keep and self._ports.get(target_id) == port
                if keep:
                    self._free.setdefault(port, []).append(sock)
            if sock is not None and not keep:
                sock.close()

    def _connect(self, port: int, expiry: float) -> socket.socket:
        sock = socket.create_connection((self.host, port), timeout=_left(expiry))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _checkout(self, target_id: int, port: int, expiry: float):
        """Dial a fresh socket for a reserved in-flight slot; (socket, port)."""
        try:
            return self._connect(port, expiry), port
        except OSError:
            if target_id not in self.overlay._nodes or target_id in self._down:
                raise
            return self._redial(target_id, expiry)

    def _redial(self, target_id: int, expiry: float):
        """Re-dial a live peer with seeded, jittered exponential backoff.

        A refused dial to a peer the overlay says is alive is usually a
        restart race (its server is rebinding).  Dead peers never get
        here: their refusal is the failure-detection signal.
        """
        delay = RECONNECT_BACKOFF
        for _ in range(RECONNECT_ATTEMPTS):
            with self._lock:
                jitter = self._backoff_rng.random()
            time.sleep(min(delay * (1.0 + jitter), _left(expiry)))
            delay *= 2.0
            if target_id not in self.overlay._nodes or target_id in self._down:
                break
            port = self._start_server(target_id)  # idempotent
            try:
                sock = self._connect(port, expiry)
            except OSError:
                continue
            with self._lock:
                self.wire.reconnects += 1
            return sock, port
        raise ConnectionRefusedError(
            f"node {target_id:#x} still unreachable after "
            f"{RECONNECT_ATTEMPTS} re-dials"
        )

    # --------------------------------------------------------- server side

    def _start_server(self, node_id: int, restart: bool = False) -> int:
        """Bind (idempotently) a node's listening socket; returns its port.

        A first contact (``restart=False``) to a killed node is refused:
        only the explicit restart clears the down flag.
        """
        with self._life:
            if restart:
                self._down.discard(node_id)
            elif node_id in self._down:  # killed while this dial was on its way
                raise ConnectionRefusedError(f"node {node_id:#x} is not serving")
            port = self._ports.get(node_id)
            if port is None:
                if self._closed:
                    raise ConnectionRefusedError("transport is closed")
                if self._selector is None:
                    self._start_selector()
                listener = socket.create_server((self.host, 0))
                listener.setblocking(False)
                with self._io:  # epoll and kqueue see it at once
                    self._selector.register(listener, selectors.EVENT_READ, node_id)
                self._listeners[node_id] = listener
                port = self._ports[node_id] = listener.getsockname()[1]
            return port

    def _stop_server(self, node_id: int, kill: bool = False) -> None:
        with self._life:
            if kill:
                self._down.add(node_id)
            with self._lock:
                for sock in self._free.pop(self._ports.pop(node_id, None), ()):
                    sock.close()
            with self._io:
                listener = self._listeners.pop(node_id, None)
                if listener is not None:
                    self._selector.unregister(listener)
                    listener.close()
                # A dead process severs its accepted connections too: a
                # client blocked on a reply sees EOF or a reset, not a
                # silent stall.
                for conn in list(self._server_conns.pop(node_id, ())):
                    self._sever(conn)

    def _start_selector(self) -> None:
        """Make the selector, its wake-up socketpair and its thread."""
        self._selector = selectors.DefaultSelector()
        self._wake = socket.socketpair()
        for sock in self._wake:
            sock.setblocking(False)
        self._selector.register(self._wake[0], selectors.EVENT_READ, None)
        self._selector_thread = threading.Thread(
            target=self._select_loop, name="repro-net-selector", daemon=True
        )
        self._selector_thread.start()

    def _select_loop(self) -> None:
        """Selector thread: accept, read and frame — never run a handler,
        never decode."""
        selector = self._selector
        while not self._closed:
            for key, _ in selector.select():
                target = key.data
                if target is None:
                    try:
                        self._wake[0].recv(4096)
                    except OSError:
                        pass
                elif type(target) is int:
                    self._accept(key.fileobj, target)
                else:
                    self._receive(target)

    def _accept(self, listener: socket.socket, node_id: int) -> None:
        with self._io:
            try:
                sock, _ = listener.accept()
            except OSError:  # closed by a kill meanwhile, or nothing to take
                return
            sock.setblocking(True)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Accepted(sock, node_id)
            self._server_conns.setdefault(node_id, set()).add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _receive(self, conn: _Accepted) -> None:
        """Read what arrived (the socket is readable, so ``recv`` does
        not block) and frame it."""
        with self._io:
            if conn.closed:
                return
            try:
                data = conn.sock.recv(_RECV_BYTES)
            except OSError:
                data = b""
            if not data:  # the peer hung up
                return self._sever(conn)
        self._frame(conn, data)

    def _frame(self, conn: _Accepted, data: bytes) -> None:
        """Buffer ``data`` and, while no frame of this connection is in
        service, hand the next one to a handler thread — outside ``_io``,
        which the last handler thread may be waiting on to go idle."""
        with self._io:
            conn.buffer += data
            if conn.busy or conn.closed:
                return
            try:
                payload = take_frame(conn.buffer)
            except CodecError:  # oversize prefix: not a peer to keep
                return self._sever(conn)
            if payload is None:
                return
            conn.busy = True
        self._executor.submit(self._serve_frame, conn, payload)

    def _sever(self, conn: _Accepted) -> None:
        """``_io`` held: unregister and shut a connection down; a busy
        one's handler thread closes the socket once it has replied."""
        if conn.closed:
            return
        conn.closed = True
        self._server_conns.get(conn.node_id, set()).discard(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):  # never registered: fed to _frame directly
            pass
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if not conn.busy:
            conn.sock.close()

    def _serve_frame(self, conn: _Accepted, payload: bytes) -> None:
        """Handler thread (handlers may block in nested RPCs): decode,
        dispatch, encode, send the reply on the connection itself, then
        serve the frame buffered behind it, if any.  Nobody reads this
        job's future, so an undecodable frame or unencodable result is
        *answered*."""
        codec = self.codec
        while True:
            try:
                reply = self._dispatch(conn.node_id, codec.decode(payload))
                blob = codec.encode_frame(reply)
            except Exception:
                blob = codec.encode_frame({"error": traceback.format_exc()})
            try:
                conn.sock.sendall(blob)
                sent = True
            except OSError:  # severed meanwhile: the caller saw EOF or a reset
                sent = False
            with self._io:
                payload = None
                if not sent:
                    self._sever(conn)
                elif not conn.closed:
                    try:
                        payload = take_frame(conn.buffer)
                    except CodecError:
                        self._sever(conn)
                if payload is None:
                    conn.busy = False
                    if conn.closed:
                        conn.sock.close()
                    return

    def _loopback(self, node_id: int, frame: dict) -> dict:
        """Dispatch on the calling thread (a handler's self-RPC, a route's
        step at its origin), the frame and the reply through the codec."""
        codec = self.codec
        reply = self._dispatch(node_id, codec.decode(codec.encode(frame)))
        if reply.get("terminus", node_id) != node_id:
            return reply  # read off a chained socket: decoded once already
        return codec.decode(codec.encode(reply))

    def _node_lock(self, node_id: int) -> threading.RLock:
        return self._locks.setdefault(node_id, threading.RLock())

    def _dispatch(self, node_id: int, frame: dict) -> dict:
        prev = getattr(self._serving, "node", None)
        self._serving.node = node_id
        with self._inflight_cv:
            self._inflight += 1
        try:
            if frame["op"] == "call":
                with self._node_lock(node_id):
                    return self._dispatch_call(node_id, frame)
            if frame["op"] == "route":
                return self._dispatch_route(node_id, frame)
            if frame["op"] == "ping":
                return {"ok": node_id in self.overlay._nodes}
            raise CodecError(f"unknown frame op {frame.get('op')!r}")
        except Exception:
            return {"error": traceback.format_exc()}
        finally:
            self._serving.node = prev
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()

    def _dispatch_call(self, node_id: int, frame: dict) -> dict:
        node = self.overlay._nodes.get(node_id)
        if node is None:
            raise RoutingError(f"node {node_id:#x} crashed while serving")
        cls_name, _, method_name = frame["handler"].partition(".")
        path = _TARGET_PATHS.get(cls_name)
        if path is None:
            raise CodecError(f"handler class {cls_name!r} not in the wire schema")
        target = node
        for attr in path:
            target = getattr(target, attr)
        result = getattr(target, method_name)(*frame["args"], **frame["kwargs"])
        return {"result": result}

    def _dispatch_route(self, node_id: int, frame: dict) -> dict:
        overlay = self.overlay
        node = overlay._nodes.get(node_id)
        if node is None:
            raise RoutingError(f"route hop {node_id:#x} crashed while serving")
        key = frame["key"]
        message = frame["message"]
        path = frame["path"] + [node_id]
        if len(path) > MAX_ROUTE_HOPS:
            raise RoutingError("routing loop detected")
        # The node lock covers only this hop's local up-calls; it is
        # released before chaining, so two concurrent routes crossing in
        # opposite directions cannot hold-and-wait each other's hops.
        with self._node_lock(node_id):
            next_id = node.next_hop(
                key, rng=overlay.rng, randomize=overlay.randomize_routing
            )
            cont = node.app.forward(node, message, key, next_id)
            if not cont:
                return {"terminus": node_id, "intercepted": True,
                        "path": path, "message": message}
            if next_id is None:
                node.app.deliver(node, message, key)
                return {"terminus": node_id, "intercepted": False,
                        "path": path, "message": message}
        # Chain the (post-forward) message to the next hop's server; the
        # final state rides the replies back along the chain.  A leg the
        # fault plane (or the network) loses turns into a ``lost``
        # verdict riding back instead — the client's RouteResult.lost,
        # exactly the simulator's observable for a dropped hop.
        try:
            return self._request(
                next_id,
                {"op": "route", "key": key, "message": message, "path": path},
                legs=ROUTE_DEADLINE_LEGS,
                link=(node_id, next_id),
                dup_ok=True,
            )
        except (OSError, TimeoutError) as exc:
            self._note_failure(exc)
            return {"lost": True, "path": path}
