"""The transport's thread model, pinned where it became concurrent.

The calling thread does its own encode, blocking socket I/O and decode;
the selector thread accepts, reads, frames and answers pings; a handler
thread decodes, dispatches under the node lock, encodes and sends its
reply itself (DESIGN.md §4i).  What several threads share — the free
lists, the in-flight counts, the framing of a byte stream, the
lifecycle — is exercised here from several threads and in awkward
chunkings.  The calling thread also takes a route's first step, at its
own access node.
"""

import gc
import os
import random
import socket
import sys
import threading
import time
import types
import warnings

import pytest

from repro.core.config import PastConfig
from repro.core.messages import LookupRequest
from repro.core.node import PastNode
from repro.core.storage import LocalStore
from repro.net import asyncio_transport as at
from repro.net.codec import MAX_FRAME_BYTES, CodecError, take_frame
from repro.net.differential import build_cluster


@pytest.fixture
def cluster():
    net, transport = build_cluster(4, seed=3, engine="asyncio")
    transport.serve_all()
    nodes = sorted(net.nodes(), key=lambda n: n.node_id)
    try:
        yield net, transport, nodes[0], nodes[1]
    finally:
        transport.close()


def ask(transport, client, target, fid=1):
    """One ``holds_file`` RPC from ``client`` to ``target``: (delivered, result)."""
    return transport.send(
        client.node_id, target.node_id, target.store.holds_file, fid
    )


def call_frame(codec, fid):
    return codec.encode_frame({
        "op": "call", "handler": "LocalStore.holds_file",
        "args": [fid], "kwargs": {},
    })


class PeerScript:
    """A raw TCP peer that accepts one connection and follows a script."""

    def __init__(self, script):
        self.server = socket.create_server(("127.0.0.1", 0))
        self.port = self.server.getsockname()[1]
        self.thread = threading.Thread(target=self._run, args=(script,), daemon=True)
        self.thread.start()

    def _run(self, script):
        conn, _ = self.server.accept()
        with conn:
            script(conn)

    def close(self):
        self.server.close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


class TestConcurrentCallers:
    def test_eight_threads_share_one_bounded_pool(self, cluster, monkeypatch):
        net, transport, client, target = cluster
        transport.pool_limit = 4
        threads, sends = 8, 200

        def holds_file(self, fid):
            time.sleep(0.0002)  # long enough for callers to pile up
            return fid * 2 + 1

        monkeypatch.setattr(LocalStore, "holds_file", holds_file)
        mismatched, failed, served = [], [], []

        def hammer(t):
            for i in range(sends):
                fid = t * 1000 + i
                ok, result = ask(transport, client, target, fid)
                if not ok:
                    failed.append(fid)
                elif result != fid * 2 + 1:
                    mismatched.append((fid, result))
                else:
                    served.append(fid)

        port = transport._ports[target.node_id]
        workers = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
        most_free = most_active = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in workers:
                w.start()
            while any(w.is_alive() for w in workers):
                most_free = max(most_free, len(transport._free.get(port, ())))
                most_active = max(most_active, transport._active.get(target.node_id, 0))
                time.sleep(0.0005)
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        # No interleaved frames: every reply answers its own request.
        assert mismatched == []
        assert len(served) + len(failed) == threads * sends
        assert served, "nothing got through"
        # Every failure is a counted rejection, nothing else went wrong.
        assert transport.wire.rejected == len(failed) > 0
        snapshot = transport.wire.snapshot()
        assert (snapshot["timeouts"], snapshot["resets"], snapshot["refused"]) == (0, 0, 0)
        assert transport._active[target.node_id] == 0
        assert most_active <= 4
        assert most_free <= 4 and len(transport._free[port]) <= 4
        assert transport.drain(timeout=10) is True

    def test_racing_first_contacts_start_one_server(self, cluster, monkeypatch):
        net, transport, client, target = cluster
        # Unserved but not killed: the next contact starts the server.
        transport._stop_server(target.node_id)
        assert target.node_id not in transport._ports
        start_server, create_server = transport._start_server, socket.create_server
        started, bound = [], []

        def slow_start(node_id):
            time.sleep(0.05)  # every caller finds the node unserved
            started.append(start_server(node_id))
            return started[-1]

        def counted_create_server(*args, **kwargs):
            bound.append(args)
            return create_server(*args, **kwargs)

        monkeypatch.setattr(transport, "_start_server", slow_start)
        monkeypatch.setattr(socket, "create_server", counted_create_server)
        results = []
        workers = [
            threading.Thread(
                target=lambda: results.append(
                    transport.probe(client.node_id, target.node_id)
                )
            )
            for _ in range(8)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
        assert results == [True] * 8
        # All eight raced to start it; one bound a port, the rest found it.
        assert len(started) == 8
        assert set(started) == {transport._ports[target.node_id]}
        assert len(bound) == 1

    def test_client_half_never_enters_the_loop(self, cluster, monkeypatch):
        """A warmed send or probe does no lifecycle work: it neither
        takes the lifecycle lock nor starts, stops or wakes anything."""
        net, transport, client, target = cluster
        ok, _ = ask(transport, client, target)
        assert ok is True  # connection warmed, server started

        class Forbidden:
            def __enter__(self):
                raise AssertionError("the RPC path took the lifecycle lock")

            def __exit__(self, *exc):
                return False

        def boom(*args, **kwargs):
            raise AssertionError("the RPC path did lifecycle work")

        monkeypatch.setattr(transport, "_life", Forbidden())
        for name in ("_start_server", "_stop_server", "_start_selector"):
            monkeypatch.setattr(transport, name, boom)
        ok, holds = ask(transport, client, target)
        assert (ok, holds) == (True, False)
        assert transport.probe(client.node_id, target.node_id) is True
        monkeypatch.undo()  # close() takes the lifecycle lock

    def test_one_mebibyte_content_round_trip(self, monkeypatch):
        monkeypatch.setattr("repro.net.differential.NODE_CAPACITY", 64 << 20)
        net, transport = build_cluster(8, seed=3, engine="asyncio")
        try:
            content = os.urandom(1 << 20)
            owner = net.create_client("big-file")
            client_id = min(net.pastry.node_ids)
            inserted = net.insert("big", owner, content=content, client_id=client_id)
            assert inserted.success
            found = net.lookup(inserted.file_id, client_id=max(net.pastry.node_ids))
            assert found.success and found.content == content
            assert transport.wire.snapshot() == dict.fromkeys(transport.wire.snapshot(), 0)
        finally:
            transport.close()


class TestRestartLeavesNoStaleSocket:
    def test_pooled_socket_is_dropped_with_its_server(self, cluster):
        net, transport, client, victim = cluster
        assert ask(transport, client, victim) == (True, False)
        old_port = transport._ports[victim.node_id]
        assert len(transport._free[old_port]) == 1
        transport.stop_server(victim.node_id)
        assert old_port not in transport._free
        transport.ensure_server(victim.node_id)
        assert ask(transport, client, victim) == (True, False)
        assert transport.wire.resets == 0

    def test_socket_returned_after_the_restart_is_not_pooled(self, cluster, monkeypatch):
        """The race: a reply is read, the server restarts, *then* the
        caller hands its socket back.  It must be closed, not pooled —
        the next send would otherwise read a dead connection."""
        net, transport, client, victim = cluster
        exchange = at._exchange

        def exchange_then_restart(sock, blob, expiry):
            payload = exchange(sock, blob, expiry)
            transport.stop_server(victim.node_id)
            transport.ensure_server(victim.node_id)
            return payload

        old_port = transport.ensure_server(victim.node_id)
        monkeypatch.setattr(at, "_exchange", exchange_then_restart)
        ok, holds = ask(transport, client, victim)
        monkeypatch.undo()
        assert (ok, holds) == (True, False)  # its reply had been read
        new_port = transport._ports[victim.node_id]
        assert old_port not in transport._free and not transport._free.get(new_port)
        ok, holds = ask(transport, client, victim)
        assert (ok, holds) == (True, False)
        assert transport.wire.resets == 0
        assert transport._active[victim.node_id] == 0


class TestLifecycleBelongsToTheLoop:
    """Starts, stops, kills and close run one at a time, under the
    transport's lifecycle lock (once the event loop's job)."""

    def test_kill_during_a_first_contact_dial_is_not_undone_by_it(
        self, cluster, monkeypatch
    ):
        """A dial that found the node unserved is on its way to start
        the server when the kill lands: the dial must be refused, and
        the node must stay dead until its explicit restart."""
        net, transport, client, victim = cluster
        transport._stop_server(victim.node_id)  # unserved, not killed
        start_server = transport._start_server
        parked, release = threading.Event(), threading.Event()

        def parked_start(node_id, restart=False):
            parked.set()
            assert release.wait(10)
            return start_server(node_id, restart)

        monkeypatch.setattr(transport, "_start_server", parked_start)
        dialed = []
        dial = threading.Thread(
            target=lambda: dialed.append(
                transport.probe(client.node_id, victim.node_id)
            )
        )
        dial.start()
        assert parked.wait(timeout=10)
        transport.stop_server(victim.node_id)
        release.set()
        dial.join(timeout=10)
        assert not dial.is_alive()
        assert dialed == [False]
        assert victim.node_id not in transport._ports
        assert victim.node_id not in transport._listeners
        assert transport.probe(client.node_id, victim.node_id) is False
        assert transport.wire.refused == 2
        transport.ensure_server(victim.node_id)
        assert transport.probe(client.node_id, victim.node_id) is True

    def test_close_leaves_nothing_for_the_collector_to_warn_about(self, monkeypatch):
        gc.collect()  # earlier tests' garbage is not this one's business
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            net, transport = build_cluster(4, seed=3, engine="asyncio")
            transport.serve_all()
            transport.close()
            del net, transport
            gc.collect()
        assert unraisable == []


class RecordingSocket:
    """Stands in for the socket of one accepted connection."""

    def __init__(self):
        self.received = bytearray()
        self.shut = self.closed = False
        self.cv = threading.Condition()

    def sendall(self, data):
        with self.cv:
            self.received += data
            self.cv.notify_all()

    def send(self, data, flags=0):
        self.sendall(data)
        return len(data)

    def shutdown(self, how):
        with self.cv:
            self.shut = True
            self.cv.notify_all()

    def close(self):
        self.closed = True

    def replies(self, n, codec):
        """Block until ``n`` whole reply frames were sent; decode them."""
        frames = []
        with self.cv:
            def ready():
                while len(frames) < n:
                    payload = take_frame(self.received)
                    if payload is None:
                        return False
                    frames.append(codec.decode(payload))
                return True
            assert self.cv.wait_for(ready, timeout=10), f"{len(frames)}/{n} replies"
        return frames


class TestServerFraming:
    """``_frame``, the selector thread's framing step, fed chunk by chunk."""

    @pytest.fixture
    def conn(self, cluster, monkeypatch):
        net, transport, client, target = cluster
        # A reply is nothing but its result, so the result names the request.
        monkeypatch.setattr(LocalStore, "holds_file", lambda self, fid: -fid)
        sock = RecordingSocket()
        conn = at._Accepted(sock, target.node_id)

        def feed(*chunks):
            for chunk in chunks:
                transport._frame(conn, chunk)

        return feed, sock, transport.codec

    def test_one_frame_a_byte_at_a_time(self, conn):
        feed, recorder, codec = conn
        blob = call_frame(codec, 7)
        feed(*(blob[i:i + 1] for i in range(len(blob))))
        (reply,) = recorder.replies(1, codec)
        assert reply == {"result": -7}

    def test_two_frames_in_one_chunk_are_answered_in_order(self, conn):
        feed, recorder, codec = conn
        feed(call_frame(codec, 1) + call_frame(codec, 2))
        first, second = recorder.replies(2, codec)
        assert (first, second) == ({"result": -1}, {"result": -2})

    def test_chunk_split_inside_the_header(self, conn):
        feed, recorder, codec = conn
        blob = call_frame(codec, 9)
        ping = codec.encode_frame({"op": "ping"})
        feed(blob[:2], blob[2:] + ping[:3], ping[3:])
        reply, pong = recorder.replies(2, codec)
        assert reply == {"result": -9}
        assert pong == {"ok": True}

    def test_oversize_prefix_aborts_without_buffering(self, conn):
        feed, recorder, codec = conn
        feed((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x" * 64)
        with recorder.cv:
            assert recorder.cv.wait_for(lambda: recorder.shut, timeout=10)
        assert recorder.closed
        assert not recorder.received


class TestHostileFrames:
    def test_oversize_prefix_closes_the_connection(self, cluster):
        net, transport, client, target = cluster
        port = transport.ensure_server(target.node_id)
        with socket.create_connection((transport.host, port), timeout=5) as raw:
            raw.sendall(b"\xff\xff\xff\xff")
            try:
                assert raw.recv(16) == b""
            except ConnectionResetError:
                pass  # an abort may surface as RST instead of FIN
        ok, holds = ask(transport, client, target)
        assert (ok, holds) == (True, False)

    def test_garbage_payload_is_answered_with_an_error(self, cluster):
        net, transport, client, target = cluster
        codec = transport.codec
        port = transport.ensure_server(target.node_id)
        garbage = b"\x07garbage, but exactly as long as announced"
        with socket.create_connection((transport.host, port), timeout=5) as raw:
            raw.sendall(len(garbage).to_bytes(4, "big") + garbage)
            buf = bytearray()
            while True:
                chunk = raw.recv(65536)
                assert chunk, "server dropped the connection instead of answering"
                buf += chunk
                payload = take_frame(buf)
                if payload is not None:
                    break
            assert "CodecError" in codec.decode(payload)["error"]
            # The connection is still frame-aligned and serving.
            raw.sendall(codec.encode_frame({"op": "ping"}))
            assert codec.decode(raw.recv(65536)[4:]) == {"ok": True}
        ok, holds = ask(transport, client, target)
        assert (ok, holds) == (True, False)
        assert transport.drain(timeout=10) is True

    def test_oversize_reply_prefix_raises_codec_error_on_the_client(
        self, cluster, monkeypatch
    ):
        net, transport, client, target = cluster

        def announce_4gib(conn):
            conn.recv(65536)
            conn.sendall(b"\xff\xff\xff\xff")
            conn.recv(16)  # until the client hangs up

        peer = PeerScript(announce_4gib)
        real_port = transport.ensure_server(target.node_id)
        monkeypatch.setitem(transport._ports, target.node_id, peer.port)
        with pytest.raises(CodecError, match="limit"):
            ask(transport, client, target)
        peer.close()
        monkeypatch.setitem(transport._ports, target.node_id, real_port)
        assert transport._active[target.node_id] == 0
        assert not transport._free.get(peer.port)
        ok, holds = ask(transport, client, target)
        assert (ok, holds) == (True, False)


    def test_unhashable_reply_raises_codec_error_on_the_client(self, cluster, monkeypatch):
        """A well-framed reply holding a set of a list fails ``send``
        with a ``CodecError``, like any malformed reply, not a
        ``TypeError``."""
        net, transport, client, target = cluster
        payload = b"e\x00\x00\x00\x01l\x00\x00\x00\x00"

        def garbled(conn):
            conn.recv(65536)
            conn.sendall(len(payload).to_bytes(4, "big") + payload)
            conn.recv(16)  # until the client hangs up

        peer = PeerScript(garbled)
        real_port = transport.ensure_server(target.node_id)
        monkeypatch.setitem(transport._ports, target.node_id, peer.port)
        with pytest.raises(CodecError, match="unhashable"):
            ask(transport, client, target)
        for sock in transport._free.pop(peer.port, ()):  # frame-aligned, so pooled
            sock.close()
        peer.close()
        monkeypatch.setitem(transport._ports, target.node_id, real_port)
        assert transport._active[target.node_id] == 0
        assert ask(transport, client, target) == (True, False)


class TestTimeoutFlavour:
    """``socket.timeout`` is not ``TimeoutError`` before Python 3.10."""

    def test_stalled_peer_is_one_asyncio_timeout_per_call(self, cluster, monkeypatch):
        """One builtin ``TimeoutError`` per stalled call (the test's name
        is from when it was ``asyncio.TimeoutError``, the same class on
        3.11 and later)."""
        net, transport, client, target = cluster
        release = threading.Event()
        peers = [PeerScript(lambda conn: release.wait(10)) for _ in range(3)]
        transport.timeout = 0.05
        try:
            monkeypatch.setitem(transport._ports, target.node_id, peers[0].port)
            with pytest.raises(TimeoutError):
                transport._request(target.node_id, {"op": "ping"})
            assert transport.wire.timeouts == 0  # _request raises, callers count
            monkeypatch.setitem(transport._ports, target.node_id, peers[1].port)
            assert transport.probe(client.node_id, target.node_id) is False
            assert transport.wire.timeouts == 1
            monkeypatch.setitem(transport._ports, target.node_id, peers[2].port)
            sent = ask(transport, client, target)
            assert sent == (False, None)
            assert transport.wire.timeouts == 2
            assert transport.wire.resets == 0
        finally:
            release.set()
            for peer in peers:
                peer.close()

    def test_stalled_next_hop_is_one_timeout_and_lost(self, cluster, monkeypatch):
        net, transport, client, target = cluster
        release = threading.Event()
        peer = PeerScript(lambda conn: release.wait(10))
        transport.timeout = 0.01  # a route budgets ROUTE_DEADLINE_LEGS of these
        try:
            monkeypatch.setitem(transport._ports, target.node_id, peer.port)
            result = transport.route(client.node_id, target.node_id)
            assert result.lost and result.path == [client.node_id]
            assert transport.wire.timeouts == 1
        finally:
            release.set()
            peer.close()

    def test_pre_310_flavour_still_surfaces_as_asyncio_timeout(self, cluster, monkeypatch):
        """Run the deadline-lapse path with a ``socket.timeout`` that is
        *not* a ``TimeoutError``, as on 3.9, whatever this interpreter is:
        it still surfaces as the builtin ``TimeoutError``."""
        net, transport, client, target = cluster
        legacy = types.SimpleNamespace(**vars(socket))
        legacy.timeout = type("timeout", (OSError,), {})
        assert not issubclass(legacy.timeout, TimeoutError)
        monkeypatch.setattr(at, "socket", legacy)
        transport.timeout = 0.0  # every RPC is born expired
        assert transport.probe(client.node_id, target.node_id) is False
        assert transport.wire.snapshot()["timeouts"] == 1
        assert transport.wire.snapshot()["refused"] == 0

    def test_mid_frame_close_counts_as_a_reset(self, cluster, monkeypatch):
        net, transport, client, target = cluster

        def half_a_prefix(conn):
            conn.recv(65536)
            conn.sendall(b"\x00\x00")

        peer = PeerScript(half_a_prefix)
        monkeypatch.setitem(transport._ports, target.node_id, peer.port)
        sent = ask(transport, client, target)
        peer.close()
        assert sent == (False, None)
        assert (transport.wire.resets, transport.wire.timeouts) == (1, 0)


class TestRouteStartsAtItsOrigin:
    """A client routes from its own access node: the origin's step runs
    on the calling thread, and only overlay hops cross a socket."""

    @pytest.fixture
    def requests(self, monkeypatch):
        """Targets of every ``_request`` made while the test runs."""
        request, targets = at.AsyncioTransport._request, []

        def counted(self, target_id, *args, **kwargs):
            targets.append(target_id)
            return request(self, target_id, *args, **kwargs)

        monkeypatch.setattr(at.AsyncioTransport, "_request", counted)
        return targets

    @pytest.fixture
    def forwards(self, monkeypatch):
        """(node, thread) of every ``forward`` up-call made while the test runs."""
        forward, seen = PastNode.forward, []

        def recording(self, node, message, key, next_id):
            seen.append((self.node_id, threading.get_ident()))
            return forward(self, node, message, key, next_id)

        monkeypatch.setattr(PastNode, "forward", recording)
        return seen

    def test_one_request_per_overlay_hop(self, requests):
        # Leaf sets of 8 among 24 nodes: routes of up to three hops.
        net, transport = build_cluster(
            24, seed=5, engine="asyncio", config=PastConfig(seed=5, b=2, l=8, k=3)
        )
        try:
            rng = random.Random(11)
            origins = sorted(net.pastry.node_ids)
            hops = set()
            for _ in range(60):
                del requests[:]
                result = transport.route(rng.choice(origins), rng.getrandbits(128))
                assert requests == result.path[1:]  # so result.hops of them
                hops.add(result.hops)
            assert hops >= {0, 1, 2}
            assert transport.wire.snapshot() == dict.fromkeys(transport.wire.snapshot(), 0)
        finally:
            transport.close()

    def test_zero_hop_route_touches_no_socket(self, cluster, requests, monkeypatch):
        net, transport, client, target = cluster

        def boom(*args, **kwargs):
            raise AssertionError("a route its origin answers dialed a socket")

        monkeypatch.setattr(socket, "create_connection", boom)
        result = transport.route(client.node_id, client.node_id)
        assert (result.path, result.terminus, result.lost) == (
            [client.node_id], client.node_id, False)
        assert requests == []

    def test_origin_forwards_on_the_calling_thread(self, cluster, forwards):
        net, transport, client, target = cluster
        result = transport.route(client.node_id, target.node_id)
        assert result.path == [client.node_id, target.node_id]
        (first, first_thread), (second, second_thread) = forwards
        assert (first, second) == (client.node_id, target.node_id)
        assert first_thread == threading.get_ident() != second_thread

    def test_killed_origin_loses_the_route_to_one_refusal(self, cluster, forwards, requests):
        net, transport, client, target = cluster
        transport.stop_server(client.node_id)
        result = transport.route(client.node_id, target.node_id)
        assert result.lost and result.path == []
        assert transport.wire.refused == 1
        assert forwards == [] and requests == []
        transport.ensure_server(client.node_id)  # the restart
        assert transport.route(client.node_id, target.node_id).terminus == target.node_id
        assert transport.wire.refused == 1

    def test_origin_that_is_no_live_node_is_a_key_error(self, cluster):
        net, transport, client, target = cluster
        with pytest.raises(KeyError, match="not a live node"):
            transport.route(client.node_id ^ 1, target.node_id)

    def test_handler_exception_at_the_origin_is_a_remote_call_error(
        self, cluster, monkeypatch
    ):
        net, transport, client, target = cluster

        def forward(self, node, message, key, next_id):
            raise ZeroDivisionError("forward blew up")

        monkeypatch.setattr(PastNode, "forward", forward)
        with pytest.raises(at.RemoteCallError, match="ZeroDivisionError"):
            transport.route(client.node_id, client.node_id)
        assert transport.drain(timeout=10) is True

    def test_drain_waits_for_an_origin_step_in_flight(self, cluster, monkeypatch):
        net, transport, client, target = cluster
        entered, release = threading.Event(), threading.Event()

        def deliver(self, node, message, key):
            entered.set()
            release.wait(10)

        monkeypatch.setattr(PastNode, "deliver", deliver)
        worker = threading.Thread(
            target=transport.route, args=(client.node_id, client.node_id)
        )
        worker.start()
        try:
            assert entered.wait(10), "the origin never delivered"
            assert transport.drain(timeout=0.1) is False
        finally:
            release.set()
        assert transport.drain(timeout=10) is True
        worker.join(timeout=10)
        assert not worker.is_alive()

    def test_zero_hop_reply_is_a_value(self, cluster, monkeypatch):
        net, transport, client, target = cluster

        def deliver(self, node, message, key):
            message.extra_hops += 7

        monkeypatch.setattr(PastNode, "deliver", deliver)
        sent = LookupRequest(file_id=5, client_id=client.node_id)
        result = transport.route(client.node_id, client.node_id, sent)
        assert result.hops == 0 and result.message is not sent
        assert result.message == LookupRequest(5, client.node_id, extra_hops=7)
        assert sent == LookupRequest(5, client.node_id)

    @pytest.mark.parametrize("hops", [0, 1])
    def test_unencodable_field_is_a_codec_error(self, cluster, forwards, hops):
        net, transport, client, target = cluster
        key = (client, target)[hops].node_id
        assert transport.route(client.node_id, key).hops == hops
        del forwards[:]
        with pytest.raises(CodecError, match="outside the certified wire grammar"):
            transport.route(client.node_id, key, LookupRequest(object(), client.node_id))
        assert forwards == []  # refused before any up-call ran


class TestThreadBudget:
    def test_forty_eight_nodes_add_at_most_three_threads(self):
        """The server side is one selector thread plus handler threads
        that serve requests, not connections: serving 48 nodes over 48
        fresh connections adds no thread per node or per connection."""
        before = set(threading.enumerate())
        net, transport = build_cluster(48, seed=3, engine="asyncio")
        try:
            transport.serve_all()
            client = min(net.pastry.node_ids)
            for node in net.nodes():
                sent = transport.send(client, node.node_id, node.store.holds_file, 1)
                assert sent == (True, False)
                # The pool starts a thread for a request that finds no
                # idle one, and the handler that replied goes idle just
                # after its reply: let it, so a loaded machine's
                # scheduling is not counted as a thread per node.
                time.sleep(0.001)
            added = [t for t in threading.enumerate() if t not in before]
            assert len(added) <= 3, sorted(t.name for t in added)
        finally:
            transport.close()
