"""Socket-level fault scenarios for :class:`AsyncioTransport`.

The wire-safety story (DESIGN.md §4k) makes concrete promises about how
the real transport degrades: one deadline per RPC leg normalized to
the builtin ``TimeoutError``, refused connections that stay refused until an
explicit restart, resets surfaced promptly instead of silent stalls,
servers that shrug off half-written frames, and reject-not-queue
backpressure past the pool's high-water mark.  Each test here kills,
stalls, or mangles a live localhost cluster and pins one promise.
"""

import socket
import threading
import time

from repro.core.storage import LocalStore
from repro.net import asyncio_transport as at
from repro.net.differential import build_cluster
from repro.netsim import FaultPlan


def _two_nodes(net):
    """A deterministic (client, target) pair of distinct nodes."""
    nodes = sorted(net.nodes(), key=lambda n: n.node_id)
    return nodes[0], nodes[1]


class TestDeadlineSymmetry:
    def test_stalled_handler_times_out_in_one_deadline(self, monkeypatch):
        """A stalled peer costs the caller one deadline, not two.

        The old transport split the budget into an in-loop read timeout
        plus a driver-side ``future.result(timeout * 2)``, so a peer that
        accepted the frame but never answered could pin the caller for
        double its nominal budget.  Now one ``wait_for`` governs the
        whole leg and the failure lands in ``wire.timeouts``.
        """
        net, transport = build_cluster(4, seed=3, engine="asyncio")
        try:
            transport.timeout = 0.5
            client, target = _two_nodes(net)
            release = threading.Event()
            entered = threading.Event()
            orig = LocalStore.holds_file

            def holds_file(self, fid):
                entered.set()
                release.wait(10)
                return orig(self, fid)

            monkeypatch.setattr(LocalStore, "holds_file", holds_file)
            start = time.monotonic()
            ok, result = transport.send(
                client.node_id, target.node_id, target.store.holds_file, 1
            )
            elapsed = time.monotonic() - start
            assert entered.is_set(), "RPC never reached the handler"
            assert (ok, result) == (False, None)
            # One deadline (0.5s) plus scheduling slack — far under the
            # doubled budget the old asymmetry allowed.
            assert elapsed < 1.4, f"timeout took {elapsed:.2f}s for a 0.5s deadline"
            assert transport.wire.timeouts == 1
            release.set()
            assert transport.drain(timeout=10) is True
        finally:
            release.set()
            transport.close()

    def test_deadline_scales_with_route_legs(self, monkeypatch):
        """A direct RPC gets ``timeout``; a chained route leg, which waits
        for the rest of the chain, gets ``timeout x ROUTE_DEADLINE_LEGS``."""
        budgets = []
        exchange = at._exchange

        def recording_exchange(sock, blob, expiry):
            budgets.append(expiry - time.perf_counter())
            return exchange(sock, blob, expiry)

        net, transport = build_cluster(4, seed=3, engine="asyncio")
        try:
            transport.timeout = 0.25
            client, target = _two_nodes(net)
            monkeypatch.setattr(at, "_exchange", recording_exchange)
            ok, _ = transport.send(
                client.node_id, target.node_id, target.store.holds_file, 1
            )
            assert ok
            route = transport.route(client.node_id, target.node_id)
            assert route.path == [client.node_id, target.node_id]
            send_budget, leg_budget = budgets
            legs = at.ROUTE_DEADLINE_LEGS
            assert 0.0 < send_budget <= 0.25
            assert 0.25 * (legs - 1) < leg_budget <= 0.25 * legs
        finally:
            transport.close()


class TestKilledPeer:
    def test_connection_refused_on_first_contact(self):
        """A killed node refuses promptly and stays dead.

        ``stop_server`` must defeat serve-on-first-contact resurrection:
        the node is still in the overlay (the corpse window before
        failure detection), but dialing it has to fail fast and be
        classified as refused, until an explicit ``ensure_server``.
        """
        net, transport = build_cluster(4, seed=3, engine="asyncio")
        try:
            client, victim = _two_nodes(net)
            transport.stop_server(victim.node_id)
            start = time.monotonic()
            assert transport.probe(client.node_id, victim.node_id) is False
            assert time.monotonic() - start < 2.0
            assert transport.wire.refused >= 1
            assert victim.node_id not in transport._ports
            transport.ensure_server(victim.node_id)
            assert transport.probe(client.node_id, victim.node_id) is True
        finally:
            transport.close()

    def test_peer_killed_mid_frame_surfaces_reset(self, monkeypatch):
        """Killing a peer mid-RPC resets the caller instead of stalling it.

        The client's frame is accepted and parked in the handler when the
        kill lands; severing the accepted connection must bounce the
        caller immediately with a reset, well inside its deadline.
        """
        net, transport = build_cluster(4, seed=3, engine="asyncio")
        try:
            client, victim = _two_nodes(net)
            release = threading.Event()
            entered = threading.Event()
            orig = LocalStore.holds_file

            def holds_file(self, fid):
                entered.set()
                release.wait(10)
                return orig(self, fid)

            monkeypatch.setattr(LocalStore, "holds_file", holds_file)
            outcome = {}

            def call():
                outcome["result"] = transport.send(
                    client.node_id, victim.node_id, victim.store.holds_file, 1
                )

            worker = threading.Thread(target=call)
            worker.start()
            assert entered.wait(5), "RPC never reached the handler"
            transport.stop_server(victim.node_id)
            worker.join(timeout=5)
            assert not worker.is_alive(), "caller stalled past the kill"
            assert outcome["result"] == (False, None)
            assert transport.wire.resets >= 1
            release.set()
        finally:
            release.set()
            transport.close()


class TestMangledFrames:
    def test_half_written_length_prefix_leaves_server_healthy(self):
        """A connection dropped after two prefix bytes poisons nothing.

        The server must treat the truncated frame as a dead client —
        close that connection and keep serving fresh ones untouched.
        """
        net, transport = build_cluster(4, seed=3, engine="asyncio")
        try:
            client, target = _two_nodes(net)
            port = transport.ensure_server(target.node_id)
            raw = socket.create_connection((transport.host, port))
            raw.sendall(b"\x00\x01")  # half a length prefix, then vanish
            raw.close()
            assert transport.probe(client.node_id, target.node_id) is True
            ok, _ = transport.send(
                client.node_id, target.node_id, target.store.holds_file, 1
            )
            assert ok is True
        finally:
            transport.close()

    def test_injected_reset_tears_link_then_recovers(self):
        """reset=1.0 fails every fault-scoped leg mid-frame, recoverably.

        Each injected reset writes a partial prefix and drops the
        connection; the caller sees ``(False, None)`` and a resets
        count, and once the plan is uninstalled the very next RPC on a
        fresh connection succeeds — frame alignment survives.
        """
        net, transport = build_cluster(4, seed=3, engine="asyncio")
        try:
            client, target = _two_nodes(net)
            plan = FaultPlan(seed=7)
            transport.install_faults(plan, reset=1.0)
            ok, _ = transport.send(
                client.node_id, target.node_id, target.store.holds_file, 1
            )
            assert ok is False
            assert plan.stats.resets == 1
            assert transport.wire.resets >= 1
            # reliable=True skips the plan entirely (join/recovery RPCs).
            ok, _ = transport.send(
                client.node_id, target.node_id, target.store.holds_file, 1,
                reliable=True,
            )
            assert ok is True
            assert plan.stats.resets == 1
            transport.install_faults(None)
            ok, _ = transport.send(
                client.node_id, target.node_id, target.store.holds_file, 1
            )
            assert ok is True
        finally:
            transport.close()

    def test_injected_loss_is_not_a_wire_timeout(self):
        """Injected drops fail fast and never pollute the real counters.

        An ``InjectedLoss`` subclasses the builtin ``TimeoutError``, so
        it is one careless except clause away from being counted a
        genuine timeout.
        """
        net, transport = build_cluster(4, seed=3, engine="asyncio")
        try:
            client, target = _two_nodes(net)
            plan = FaultPlan(seed=7, loss=1.0)
            transport.install_faults(plan)
            start = time.monotonic()
            ok, _ = transport.send(
                client.node_id, target.node_id, target.store.holds_file, 1
            )
            assert ok is False
            assert time.monotonic() - start < 1.0, "injected loss burned the deadline"
            assert plan.stats.messages_lost >= 1
            assert plan.stats.resets == 0  # only a surviving leg is torn
            assert transport.wire.timeouts == 0
            assert transport.wire.resets == 0
        finally:
            transport.close()


class TestBackpressure:
    def test_reject_not_queue_past_pool_limit(self, monkeypatch):
        """The pool's high-water mark rejects promptly instead of queueing."""
        net, transport = build_cluster(4, seed=3, engine="asyncio")
        try:
            transport.pool_limit = 1
            nodes = sorted(net.nodes(), key=lambda n: n.node_id)
            client_a, client_b, target = nodes[0], nodes[1], nodes[2]
            release = threading.Event()
            entered = threading.Event()
            orig = LocalStore.holds_file

            def holds_file(self, fid):
                entered.set()
                release.wait(10)
                return orig(self, fid)

            monkeypatch.setattr(LocalStore, "holds_file", holds_file)
            worker = threading.Thread(
                target=lambda: transport.send(
                    client_a.node_id, target.node_id, target.store.holds_file, 1
                ),
            )
            worker.start()
            assert entered.wait(5), "first RPC never occupied the pool"
            start = time.monotonic()
            ok, _ = transport.send(
                client_b.node_id, target.node_id, target.store.holds_file, 1
            )
            assert ok is False
            assert time.monotonic() - start < 1.0, "rejection was not prompt"
            assert transport.wire.rejected >= 1
            release.set()
            worker.join(timeout=5)
        finally:
            release.set()
            transport.close()


class TestReconnect:
    def test_sends_racing_a_restart_reconverge(self):
        """Traffic racing a kill/restart settles: drain() ends clean.

        Sends issued while the victim is down fail fast (refused);
        ``ensure_server`` rebinds it, and the very next send — plus a
        drain — must succeed with no stale pooled connections left over.
        """
        net, transport = build_cluster(4, seed=3, engine="asyncio")
        try:
            client, victim = _two_nodes(net)
            ok, _ = transport.send(
                client.node_id, victim.node_id, victim.store.holds_file, 1
            )
            assert ok is True  # warm the pool toward the victim
            transport.stop_server(victim.node_id)
            stop = threading.Event()
            failures = []

            def hammer():
                while not stop.is_set():
                    got, _ = transport.send(
                        client.node_id, victim.node_id, victim.store.holds_file, 1
                    )
                    if not got:
                        failures.append(1)

            worker = threading.Thread(target=hammer)
            worker.start()
            time.sleep(0.05)
            transport.ensure_server(victim.node_id)
            time.sleep(0.05)
            stop.set()
            worker.join(timeout=5)
            assert failures, "kill window produced no refused sends"
            ok, holds = transport.send(
                client.node_id, victim.node_id, victim.store.holds_file, 1
            )
            assert ok is True
            assert holds is False
            assert transport.drain(timeout=10) is True
        finally:
            transport.close()

    def test_first_dial_to_a_restarted_peer_redials_its_new_port(self, monkeypatch):
        """The restart race: the victim comes back on a new port after the
        caller read its old one, so the caller's first dial is refused.

        The overlay still counts the victim alive, so the refusal is a
        race, not a death: ``_redial`` dials the new port once and the RPC
        is delivered.
        """
        net, transport = build_cluster(4, seed=3, engine="asyncio")
        try:
            client, victim = _two_nodes(net)
            # A fresh server and an empty free list: the send must dial.
            transport.stop_server(victim.node_id)
            old = transport.ensure_server(victim.node_id)
            connect = transport._connect
            dials = []

            def racing_connect(port, expiry):
                if not dials:
                    # The restart lands between the port read and the dial.
                    for _ in range(5):
                        transport.stop_server(victim.node_id)
                        if transport.ensure_server(victim.node_id) != old:
                            break
                dials.append(port)
                return connect(port, expiry)

            monkeypatch.setattr(transport, "_connect", racing_connect)
            ok, holds = transport.send(
                client.node_id, victim.node_id, victim.store.holds_file, 1
            )
            new = transport._ports[victim.node_id]
            assert new != old
            assert (ok, holds) == (True, False)
            assert dials == [old, new]
            assert transport.wire.reconnects == 1
            assert transport.wire.refused == 0
        finally:
            transport.close()
