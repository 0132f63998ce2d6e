"""Real-network implementation of the transport seam over asyncio TCP.

:class:`AsyncioTransport` matches the :class:`~repro.core.transport.Transport`
protocol, so the same engine-pure ``PastNode``/``PastryNode`` logic that
runs under the deterministic simulator serves real concurrent traffic:
every direct RPC and every routed message is encoded by the schema-pinned
:class:`~repro.net.codec.WireCodec`, crosses a localhost TCP socket to the
target node's server, and is decoded and dispatched there.  A node
talking to itself (a handler's self-RPC, a route's first step) skips the
socket; nothing skips the codec — if a payload cannot survive it, the call
fails, which is exactly the property the wire analyzer proves statically.

Topology: the *calling* thread (a driver, or an executor thread issuing
a nested RPC) takes a route's first step itself, at the client's access
node; otherwise it encodes its request, checks a blocking ``TCP_NODELAY``
socket out of a per-target free list, sends, reads the reply and decodes
it — it never enters the event loop.  One asyncio *loop* thread runs one
TCP server per node (127.0.0.1, kernel-assigned ports): it accepts,
frames incoming bytes (an :class:`asyncio.Protocol` per connection),
writes replies and fires timers.  Each complete request goes to an
*executor* thread, which decodes it, dispatches under the node's lock
and encodes the reply — never on the loop thread — so a handler that
itself sends nested RPCs (insert coordination fanning out
``accept_replica``, repair chains) cannot deadlock the loop.

Semantics relative to ``SimTransport``:

* ``call=None`` (RPC to a node the caller already knows is dead) is
  short-circuited driver-side to ``(False, None)`` after accounting,
  exactly like the simulator — there is no server to time out against.
* ``reliable=True`` skips the installed :class:`WireFaultPlan` exactly
  like the simulator skips its fault plan (join and recovery state
  exchanges assume a reliable substrate); the real network can still
  fail the call.  A sim :class:`FaultPlan` on the overlay is rejected
  at construction — wire faults are installed via ``install_faults``.
* ``route`` starts at the client's access node, like the simulator's:
  the origin runs its ``forward`` up-call on the calling thread, each
  hop chains the frame to the next hop's server (h overlay hops, h
  socket round trips), and the message's final state flows back along
  the chain into ``RouteResult.message``.  A leg the fault plane (or
  the real network) loses ends the chain with a ``lost`` verdict that
  rides the replies back — the client sees ``RouteResult.lost``, same
  as under the simulator, and its retry policy takes over.

Failure discipline (see DESIGN.md §4k): every RPC runs under **one**
wall-clock expiry derived from the client's
:class:`~repro.core.resilience.RetryPolicy` (or the flat ``timeout``),
handed to each blocking socket call as its timeout; refused dials to
live peers re-dial with seeded jittered backoff; per-peer in-flight
RPCs past a high-water mark are rejected, not queued; and every
swallowed failure is classified into the
:class:`~repro.net.faults.WireStats` counters.
"""

from __future__ import annotations

import asyncio
import random
import socket
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.resilience import RetryPolicy
from ..core.seeding import derive_seed
from ..pastry.network import MAX_ROUTE_HOPS, RouteResult, RoutingError
from .codec import CodecError, WireCodec, take_frame
from .faults import InjectedLoss, InjectedReset, WireFaultPlan, WireStats

__all__ = ["AsyncioTransport", "Backpressure", "RemoteCallError"]

#: Deadline multiplier for a route's chained leg, which blocks until the
#: rest of the chain returns (overlay routes are O(log n) hops; deeper
#: chains fail the leg, report it lost, and let the client retry).
ROUTE_DEADLINE_LEGS = 8

#: Seconds one RPC leg may take when no :class:`RetryPolicy` sets it.
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


class Backpressure(ConnectionError):
    """A send rejected at the per-peer in-flight high-water mark.

    Subclasses :class:`ConnectionError` so the callers' existing
    ``except OSError`` recovery paths treat an overloaded peer like an
    unreachable one: the RPC is undelivered and the client's retry
    policy decides what happens next.  Rejecting (instead of queueing)
    keeps an overloaded peer from accumulating unbounded waiters.
    """


class _PeriodicTimer:
    """Repeating timer handle matching the simulator's ``stop()`` shape."""

    def __init__(self, cancel: Callable[[], None]):
        self._cancel = cancel
        self.stopped = False

    def stop(self) -> None:
        if not self.stopped:
            self.stopped = True
            self._cancel()


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


class _Connection(asyncio.Protocol):
    """One accepted connection: framed on the loop, served off it.

    Frames are served in order, as the lock-step client expects: while a
    payload is with the executor later bytes only accumulate, and
    writing its reply resumes the framing.
    """

    def __init__(self, owner: "AsyncioTransport", node_id: int):
        self.owner = owner
        self.node_id = node_id
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = bytearray()
        self.busy = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.owner._server_conns.setdefault(self.node_id, set()).add(transport)

    def connection_lost(self, exc) -> None:
        self.owner._server_conns.get(self.node_id, set()).discard(self.transport)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        owner = self.owner
        while not self.busy:
            try:
                payload = take_frame(self.buffer)
            except CodecError:  # oversize prefix: not a peer to keep
                return self.transport.abort()
            if payload is None:
                return
            if payload == owner._ping:
                # The codec is deterministic, so a ping is recognised by
                # its bytes and answered here, without a handler thread.
                self.transport.write(owner._pong[self.node_id in owner.overlay._nodes])
            else:
                self.busy = True
                owner._executor.submit(owner._serve_frame, self, payload)

    def reply(self, blob: bytes) -> None:
        """Loop thread: write one reply, then frame what queued behind it."""
        self.busy = False
        if not self.transport.is_closing():
            self.transport.write(blob)
            self.data_received(b"")


class AsyncioTransport:
    """Transport seam over localhost asyncio TCP, one server per node."""

    #: The clock behind :meth:`now` is wall time: engine-agnostic
    #: deadline code (``core.resilience``) may bound operations by it.
    #: ``SimTransport`` has no such attribute, so the same check keeps
    #: the simulator's virtual-time model byte-identical.
    realtime = True

    def __init__(
        self,
        overlay: Any,
        host: str = "127.0.0.1",
        policy: Optional[RetryPolicy] = None,
        seed: int = 0,
    ):
        if getattr(overlay, "fault_plan", None) is not None:
            raise RuntimeError(
                "AsyncioTransport refuses a FaultPlan: injected faults "
                "belong to the deterministic simulator (wire faults are "
                "a WireFaultPlan, installed via install_faults)"
            )
        self.overlay = overlay
        self.host = host
        self.timeout = RPC_TIMEOUT
        #: Per-RPC deadlines derive from this policy when set; the flat
        #: ``timeout`` is only the policy-less fallback.
        self.policy = policy
        self.pool_limit = POOL_LIMIT
        #: Installed socket-level fault plan (None = zero-cost clean wire).
        self.faults: Optional[WireFaultPlan] = None
        #: Classified failure counters (satellite of the fault plane:
        #: refused vs reset vs timeout, reconnects, rejected sends).
        self.wire = WireStats()
        self.codec = WireCodec()
        self._ports: Dict[int, int] = {}
        self._servers: Dict[int, asyncio.AbstractServer] = {}
        #: Guards what concurrent callers share: free lists, in-flight
        #: counts, fault-plan and backoff draws (call order is draw
        #: order) and the wire counters.  Never held across I/O.
        self._lock = threading.Lock()
        #: Idle client sockets by the *port* they dialed: a restarted
        #: node binds a new port, so its old sockets are never reused.
        self._free: Dict[int, List[socket.socket]] = {}
        #: Per-peer in-flight RPC counts.
        self._active: Dict[int, int] = {}
        #: Accepted connections, so a kill can sever them (loop thread).
        self._server_conns: Dict[int, Set[asyncio.Transport]] = {}
        #: Nodes whose process was killed: no serve-on-first-contact
        #: resurrection until an explicit ensure_server (the restart).
        #: Like ``_ports`` and ``_servers`` it changes only on the loop
        #: thread, so a kill and a start of one node cannot interleave.
        self._down: Set[int] = set()
        #: Jittered-backoff draws for re-dials.
        self._backoff_rng = random.Random(derive_seed(seed, "wire-backoff"))
        self._ping = self.codec.encode({"op": "ping"})
        self._pong = [self.codec.encode_frame({"ok": alive}) for alive in (False, True)]
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
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-net-loop", daemon=True
        )
        self._thread.start()

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
        return self._run(self._start_server(node_id, restart=True))

    def stop_server(self, node_id: int) -> None:
        """Stop a node's server (a crashed node stops answering probes).

        Models a process death: accepted connections are severed (a
        client blocked on a reply sees a reset, not a silent stall) and
        the node is marked down, so serve-on-first-contact cannot
        resurrect it — only an explicit :meth:`ensure_server` restart.
        """
        self._run(self._stop_server(node_id, kill=True))

    def install_faults(self, plan: Optional[WireFaultPlan]) -> None:
        """Install (or with ``None`` remove) the socket-level fault plan."""
        self.faults = plan

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
        """Stop every server and the loop thread."""
        self._run(self._close_all())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        self._loop.close()
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "AsyncioTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ time plane

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def schedule(self, delay: float, callback: Callable[[], None]):
        return asyncio.run_coroutine_threadsafe(
            self._fire_later(delay, callback), self._loop
        )

    def schedule_at(self, when: float, callback: Callable[[], None]):
        return self.schedule(max(0.0, when - self.now()), callback)

    def cancel(self, handle) -> None:
        handle.cancel()

    def every(
        self,
        period: float,
        callback: Callable[[], None],
        jitter_fn: Optional[Callable[[], float]] = None,
        first_delay: Optional[float] = None,
    ) -> _PeriodicTimer:
        future = asyncio.run_coroutine_threadsafe(
            self._fire_every(period, callback, jitter_fn, first_delay),
            self._loop,
        )
        return _PeriodicTimer(future.cancel)

    async def _fire_later(self, delay: float, callback: Callable[[], None]) -> None:
        await asyncio.sleep(delay)
        await self._loop.run_in_executor(self._executor, callback)

    async def _fire_every(self, period, callback, jitter_fn, first_delay) -> None:
        delay = period if first_delay is None else first_delay
        if jitter_fn is not None:
            delay += jitter_fn()
        while True:
            await asyncio.sleep(delay)
            await self._loop.run_in_executor(self._executor, callback)
            delay = period + (jitter_fn() if jitter_fn is not None else 0.0)

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
        except (OSError, asyncio.TimeoutError) as exc:
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
        except (OSError, asyncio.TimeoutError) as exc:
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

    def rpc_deadline(self, legs: int = 1) -> float:
        """The wall-clock deadline for one RPC spanning ``legs`` legs."""
        if self.policy is not None:
            return self.policy.rpc_deadline(legs)
        return self.timeout * max(1, legs)

    def _note_failure(self, exc: BaseException) -> None:
        """Classify a swallowed transport failure into :attr:`wire` (injected
        losses are counted by the plan, rejections at the reject site)."""
        if isinstance(exc, (InjectedLoss, Backpressure)):
            return
        with self._lock:
            if isinstance(exc, asyncio.TimeoutError):
                self.wire.timeouts += 1
            elif isinstance(exc, (ConnectionResetError, BrokenPipeError)):
                self.wire.resets += 1
            elif isinstance(exc, ConnectionRefusedError):
                self.wire.refused += 1

    def _run(self, coro):
        """Run a coroutine on the loop thread, blocking the caller."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _request(self, target_id: int, frame: dict,
                 deadline: Optional[float] = None,
                 link: Optional[Tuple[int, int]] = None,
                 dup_ok: bool = False) -> dict:
        """One encoded round-trip to a node's server, on the calling thread.

        One expiry governs the whole leg — injected delay, dial and
        re-dials, write, reply read: each blocking step gets what is
        left of it as its timeout, and a lapse anywhere surfaces as
        :class:`asyncio.TimeoutError` (which ``socket.timeout`` is not
        before Python 3.10).

        ``link`` is the (src, dst) pair the fault plan is asked about;
        ``None`` legs (``reliable`` sends) are never injected.
        """
        blob = self.codec.encode_frame(frame)
        if deadline is None:
            deadline = self.rpc_deadline()
        expiry = time.perf_counter() + deadline
        faults = self.faults
        verdict = None
        if faults is not None and link is not None:
            with self._lock:
                verdict = faults.decide(link[0], link[1])
            if verdict.lost:
                # Fail fast instead of burning the real deadline: to the
                # caller an injected drop and a timed-out reply are the
                # same undelivered RPC.  Raised outside the ``try``,
                # which would rebrand it a genuine timeout.
                raise InjectedLoss(f"injected loss on link {link[0]:#x}->{link[1]:#x}")
        try:
            if verdict is not None and verdict.delay > 0.0:
                time.sleep(min(verdict.delay, 1.0, _left(expiry)))
            payload = self._roundtrip(target_id, blob, expiry, verdict, dup_ok)
        except socket.timeout:
            raise asyncio.TimeoutError(f"no reply from node {target_id:#x}") from None
        return self.codec.decode(payload)

    def _roundtrip(self, target_id: int, blob: bytes, expiry: float,
                   verdict, dup_ok: bool) -> bytes:
        port = self._ports.get(target_id)
        if port is None:
            # Live nodes serve on first contact (a joining node's peers
            # are dialed before any explicit serve_all()); dead nodes
            # refuse, which is what probes are for.  Killed processes
            # stay dead until their explicit ensure_server restart.
            if target_id not in self.overlay._nodes or target_id in self._down:
                raise ConnectionRefusedError(f"node {target_id:#x} is not serving")
            port = self._run(self._start_server(target_id))
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
            if verdict is not None and verdict.reset:
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
            port = self._run(self._start_server(target_id))  # idempotent
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

    async def _start_server(self, node_id: int, restart: bool = False) -> int:
        if restart:
            self._down.discard(node_id)
        if node_id not in self._ports:
            server = await self._loop.create_server(
                lambda: _Connection(self, node_id), self.host, 0
            )
            if node_id in self._down:  # killed while this dial was binding
                server.close()
                raise ConnectionRefusedError(f"node {node_id:#x} is not serving")
            if node_id in self._ports:  # lost a first-contact race meanwhile
                server.close()
            else:
                self._servers[node_id] = server
                self._ports[node_id] = server.sockets[0].getsockname()[1]
        return self._ports[node_id]

    async def _stop_server(self, node_id: int, kill: bool = False) -> None:
        if kill:
            self._down.add(node_id)
        server = self._servers.pop(node_id, None)
        with self._lock:
            for sock in self._free.pop(self._ports.pop(node_id, None), ()):
                sock.close()
        # A dead process severs its accepted connections too: a client
        # blocked on a reply sees a reset, not a silent stall.
        for conn in list(self._server_conns.pop(node_id, ())):
            conn.abort()
        if server is not None:
            server.close()
            await server.wait_closed()

    async def _close_all(self) -> None:
        for node_id in list(self._servers):
            await self._stop_server(node_id)
        # Timers are parked in sleeps; cancel and reap them so nothing
        # still needs the loop after it stops.
        me = asyncio.current_task()
        tasks = [t for t in asyncio.all_tasks(self._loop) if t is not me]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def _serve_frame(self, conn: _Connection, payload: bytes) -> None:
        """Executor thread (handlers may block in nested RPCs): decode,
        dispatch, encode; the loop only writes.  Nobody reads this job's
        future, so an undecodable frame or unencodable result is *answered*."""
        try:
            reply = self._dispatch(conn.node_id, self.codec.decode(payload))
            blob = self.codec.encode_frame(reply)
        except Exception:
            blob = self.codec.encode_frame({"error": traceback.format_exc()})
        self._loop.call_soon_threadsafe(conn.reply, blob)

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
                deadline=self.rpc_deadline(ROUTE_DEADLINE_LEGS),
                link=(node_id, next_id),
                dup_ok=True,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            self._note_failure(exc)
            return {"lost": True, "path": path}
