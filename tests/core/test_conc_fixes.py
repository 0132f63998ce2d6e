"""Behavior regression tests for the shipped concurrency-safety fixes.

Each test interposes on the Transport seam to make an RPC *actually
interleave* with a state change — the situation the simulator's
run-to-completion semantics never produces but a real network does —
and asserts the repaired handler re-checks its world instead of acting
on the stale pre-RPC view.  The static side of the same contract (the
analyzer finding these paths clean) is pinned in
``tests/devtools/test_conc.py``.
"""

from __future__ import annotations

import random

from repro.core import AntiEntropyScrubber
from repro.netsim.eventsim import EventSimulator
from repro.pastry import idspace
from repro.pastry.keepalive import KeepAliveMonitor
from tests.conftest import build_past, build_pastry


class InterposedTransport:
    """Wrap a Transport, running a hook before selected calls.

    This is what a concurrent execution plane does for free: between the
    moment a handler issues an RPC and the moment the reply arrives,
    arbitrary other handlers run.  The hook plays those other handlers.
    """

    def __init__(self, inner, on_send=None, on_probe=None):
        self._inner = inner
        self._on_send = on_send
        self._on_probe = on_probe

    def send(self, origin_id, target_id, call, *args, **kwargs):
        if self._on_send is not None:
            self._on_send(origin_id, target_id, call)
        return self._inner.send(origin_id, target_id, call, *args, **kwargs)

    def probe(self, origin_id, peer_id):
        if self._on_probe is not None:
            self._on_probe(origin_id, peer_id)
        return self._inner.probe(origin_id, peer_id)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def build_loaded(n=16, n_files=4, seed=70, k=3):
    net = build_past(n, k=k, l=8, seed=seed, cache_policy="none")
    owner = net.create_client("conc-owner")
    rng = random.Random(seed)
    node_ids = [node.node_id for node in net.nodes()]
    fids = []
    for i in range(n_files):
        res = net.insert(f"conc{i}", owner, 20_000,
                         node_ids[rng.randrange(len(node_ids))])
        assert res.success
        fids.append(res.file_id)
    return net, fids


def holders_of(net, fid):
    cert = net.certificate_of(fid)
    kset = net.pastry.k_closest_live(idspace.routing_key(fid), cert.k)
    return [
        net.past_node_or_none(m) for m in kset
        if net.past_node_or_none(m) is not None
        and net.past_node_or_none(m).store.holds_file(fid)
    ]


class TestReadRepairConfirmReread:
    def test_replica_reclaimed_during_donor_search_aborts_repair(self):
        """A reclaim that lands while the donor RPC is in flight must not
        be undone: repairing a replica we no longer hold would resurrect
        freed storage."""
        net, fids = build_loaded()
        fid = fids[0]
        victim = holders_of(net, fid)[0]
        victim.store.get_replica(fid).corrupted = True

        state = {"fired": False}

        def drop_mid_rpc(_origin, _target, _call):
            # First donor-probe RPC: an interleaved reclaim retires the
            # victim's own copy while the verdict is in flight.
            if not state["fired"]:
                state["fired"] = True
                victim.drop_pointer_and_deref(fid)
                victim.store.drop_replica(fid)

        net.transport = InterposedTransport(net.transport, on_send=drop_mid_rpc)
        assert victim.read_repair(fid) is False
        assert state["fired"], "donor search issued no RPC"
        # The stale pre-RPC replica handle was not written back.
        assert not victim.store.holds_file(fid)
        assert net.integrity.read_repairs == 0

    def test_repair_still_works_when_nothing_interleaves(self):
        net, fids = build_loaded()
        fid = fids[0]
        victim = holders_of(net, fid)[0]
        victim.store.get_replica(fid).corrupted = True
        net.transport = InterposedTransport(net.transport)
        assert victim.read_repair(fid) is True
        assert not victim.store.get_replica(fid).corrupted
        assert net.integrity.read_repairs == 1


class TestScrubberConfirmReread:
    def test_entry_retired_during_digest_exchange_skips_repair(self):
        """If the scrubbing node's own entry is retired while a member
        digest RPC is in flight, the repair duty belongs to the file's
        current replica set — not to this node's stale view."""
        net, fids = build_loaded()
        fid = fids[0]
        holders = holders_of(net, fid)
        node, peer = holders[0], holders[1]
        cert = node.store.certificate_for(fid)
        assert cert is not None
        # A live member with no entry at all: marks the file for repair.
        peer.drop_pointer_and_deref(fid)
        peer.store.drop_replica(fid)

        state = {"fired": False}

        def retire_mid_rpc(_origin, _target, _call):
            if not state["fired"]:
                state["fired"] = True
                node.drop_pointer_and_deref(fid)
                node.store.drop_replica(fid)

        net.transport = InterposedTransport(net.transport, on_send=retire_mid_rpc)
        scrubber = AntiEntropyScrubber(EventSimulator(), net, interval=1.0)
        scrubber._exchange_digests(node, fid, cert)
        assert state["fired"], "digest exchange issued no RPC"
        assert net.integrity.scrub_missing_found == 0

    def test_repair_requested_when_entry_survives(self):
        net, fids = build_loaded()
        fid = fids[0]
        holders = holders_of(net, fid)
        node, peer = holders[0], holders[1]
        cert = node.store.certificate_for(fid)
        peer.drop_pointer_and_deref(fid)
        peer.store.drop_replica(fid)
        net.transport = InterposedTransport(net.transport)
        scrubber = AntiEntropyScrubber(EventSimulator(), net, interval=1.0)
        scrubber._exchange_digests(node, fid, cert)
        assert net.integrity.scrub_missing_found == 1


class TestProbeRoundConfirmReread:
    def make(self, n=12, seed=81):
        net = build_pastry(n, l=8, seed=seed)
        sim = EventSimulator()
        detected = []
        monitor = KeepAliveMonitor(
            sim, net, on_detect=detected.append, interval=1.0, timeout=3.0
        )
        monitor.start()
        return net, sim, monitor, detected

    def test_unwatch_during_probe_is_not_resurrected(self):
        """An unwatch() interleaved mid-round must stay clean: a probe
        answer already in flight must not re-create observer-side
        ``last_heard`` state for a node that stopped observing."""
        net, sim, monitor, _detected = self.make()
        observer_id = net.node_ids[0]

        state = {"fired": False}

        def unwatch_mid_probe(origin_id, _peer):
            if not state["fired"] and origin_id == observer_id:
                state["fired"] = True
                monitor.unwatch(observer_id)

        monitor.transport = InterposedTransport(
            monitor.transport, on_probe=unwatch_mid_probe
        )
        monitor._probe_round(observer_id)
        assert state["fired"], "probe round issued no probe"
        assert observer_id not in monitor._timers
        stale = [key for key in monitor.last_heard if key[0] == observer_id]
        assert stale == [], (
            "probe answers in flight resurrected unwatched state"
        )
        assert observer_id not in monitor._peers_of

    def test_round_still_records_liveness_when_watched(self):
        net, sim, monitor, _detected = self.make()
        observer_id = net.node_ids[0]
        monitor.transport = InterposedTransport(monitor.transport)
        before = dict(monitor.last_heard)
        sim.run_until(1.5)  # one full probe round through the wrapper
        monitor._probe_round(observer_id)
        peers = [key for key in monitor.last_heard if key[0] == observer_id]
        assert peers, "watched observer recorded no liveness"
        assert monitor.last_heard != before or monitor.probes_sent > 0


class TestJoinConfirmReread:
    def test_contact_failed_mid_announce_is_skipped(self, monkeypatch):
        """A contact collected from the newcomer's tables can crash while
        an earlier announcement RPC is in flight; the announce loop must
        re-check liveness per contact instead of indexing the stale set."""
        from repro.pastry.node import PastryNode

        net = build_pastry(12, l=8, seed=41)
        victim_id = max(net.node_ids)
        learned = []
        state = {"fired": False}
        orig = PastryNode.learn

        # Instrument the announcement handler: the first announcement that
        # reaches any node plays a concurrent crash of the victim contact.
        def wrapped(self, new_id):
            learned.append(self.node_id)
            if not state["fired"] and victim_id in net._nodes:
                state["fired"] = True
                net.mark_failed(victim_id)
            return orig(self, new_id)

        monkeypatch.setattr(PastryNode, "learn", wrapped)
        node = net.join()
        assert state["fired"], "join announced to nobody"
        # The newcomer's tables still reference the victim (no keep-alive
        # expired), so the stale contact set definitely contained it...
        stale_contacts = set(node.leafset.members())
        stale_contacts.update(node.routing_table.entries())
        stale_contacts.update(node.neighborhood)
        assert victim_id in stale_contacts
        # ...yet the crashed contact was never announced to.
        assert victim_id not in learned
        assert node.node_id in net._nodes

    def test_join_announces_everyone_when_nothing_interleaves(self, monkeypatch):
        from repro.pastry.node import PastryNode

        net = build_pastry(12, l=8, seed=41)
        learned = []
        orig = PastryNode.learn

        def wrapped(self, new_id):
            learned.append(self.node_id)
            return orig(self, new_id)

        monkeypatch.setattr(PastryNode, "learn", wrapped)
        node = net.join()
        contacts = set(node.leafset.members())
        contacts.update(node.routing_table.entries())
        contacts.update(node.neighborhood)
        assert contacts <= set(learned)


class TestReconcileRecoveredConfirmReread:
    def find_double_holder(self, net, fids):
        for node in net.nodes():
            held = [f for f in fids if node.store.references_file(f)]
            if len(held) >= 2:
                return node, held
        raise AssertionError("no node references two files at this seed")

    def test_entry_retired_mid_repair_is_skipped(self):
        """request_repair() suspends once per replica-set member; a repair
        that lands in that window can retire a later entry of the recovery
        sweep, which must then be skipped rather than re-repaired."""
        net, fids = build_loaded(n=12, n_files=6, seed=73)
        node, held = self.find_double_holder(net, fids)
        net.crash_node(node.node_id)

        snapshot = node.store.file_ids()
        retired = snapshot[-1]
        repaired = []
        orig = node.request_repair

        def wrapped(fid):
            repaired.append(fid)
            if len(repaired) == 1 and retired in node.store.file_ids():
                # The interleaved repair: another member absorbs the
                # entry and retires this node's copy mid-sweep.
                node.store.drop_pointer(retired)
                node.store.drop_replica(retired)
            return orig(fid)

        node.request_repair = wrapped
        net.recover_node(node.node_id)
        assert repaired, "recovery sweep repaired nothing"
        assert retired != repaired[0], "interleave fired after its target"
        assert retired not in repaired, (
            "recovery sweep repaired an entry retired while in flight"
        )

    def test_recovery_sweep_covers_every_entry_when_nothing_interleaves(self):
        net, fids = build_loaded(n=12, n_files=6, seed=73)
        node, _held = self.find_double_holder(net, fids)
        net.crash_node(node.node_id)
        snapshot = node.store.file_ids()
        repaired = []
        orig = node.request_repair
        node.request_repair = lambda fid: (repaired.append(fid), orig(fid))[1]
        net.recover_node(node.node_id)
        assert set(snapshot) <= set(repaired)


class TestFailureDetectionReferrerConfirmReread:
    """process_failure_detection's referrer loop: the first referrer's
    failover suspends at its re-replication RPCs; a referrer that dropped
    its pointer in that window must not be delivered a failure it already
    handled."""

    def wire_two_referrers(self, seed=70):
        net, fids = build_loaded(seed=seed)
        fid = fids[0]
        target = holders_of(net, fid)[0]
        cert = net.certificate_of(fid)
        others = [
            n for n in net.nodes()
            if n is not target and not n.store.references_file(fid)
        ]
        a, b = others[0], others[1]
        a.store.add_pointer(cert, target.node_id, primary=True)
        b.store.add_pointer(cert, target.node_id, primary=False)
        replica = target.store.get_replica(fid)
        replica.add_referrer(a.node_id)
        replica.add_referrer(b.node_id)
        return net, fid, target, a, b

    def test_referrer_that_dropped_its_pointer_mid_failover_is_skipped(
        self, monkeypatch
    ):
        from repro.core.node import PastNode

        net, fid, target, a, b = self.wire_two_referrers()
        first, second = sorted([a, b], key=lambda n: n.node_id)
        delivered = []
        orig = PastNode.on_diverted_target_failed

        def wrapped(self, fid_):
            if fid_ == fid and self in (a, b):
                delivered.append(self.node_id)
                if self is first:
                    # Interleaved failover: the other referrer's own path
                    # retires its pointer while this RPC is in flight.
                    second.store.drop_pointer(fid)
            return orig(self, fid_)

        monkeypatch.setattr(PastNode, "on_diverted_target_failed", wrapped)
        net.crash_node(target.node_id)
        net.process_failure_detection(target.node_id)
        assert delivered == [first.node_id], (
            "a referrer without a pointer was delivered a stale failure"
        )

    def test_both_referrers_delivered_when_nothing_interleaves(
        self, monkeypatch
    ):
        from repro.core.node import PastNode

        net, fid, target, a, b = self.wire_two_referrers()
        delivered = []
        orig = PastNode.on_diverted_target_failed

        def wrapped(self, fid_):
            if fid_ == fid and self in (a, b):
                delivered.append(self.node_id)
            return orig(self, fid_)

        monkeypatch.setattr(PastNode, "on_diverted_target_failed", wrapped)
        net.crash_node(target.node_id)
        net.process_failure_detection(target.node_id)
        assert sorted(delivered) == sorted([a.node_id, b.node_id])


class TestFailureDetectionPointerConfirmReread:
    """process_failure_detection's pointer loop: earlier deliveries
    suspend at their pointer-rebind RPCs; a target that shed the replica
    in that window must not be told about the dead referrer."""

    def wire_two_pointers(self, seed=70):
        net, fids = build_loaded(n_files=6, seed=seed)
        f1, f2 = fids[0], fids[1]
        t1 = holders_of(net, f1)[0]
        t2 = next(h for h in holders_of(net, f2) if h is not t1)
        referrer = next(
            n for n in net.nodes()
            if n not in (t1, t2)
            and not n.store.references_file(f1)
            and not n.store.references_file(f2)
        )
        for fid, tgt in ((f1, t1), (f2, t2)):
            cert = net.certificate_of(fid)
            referrer.store.add_pointer(cert, tgt.node_id, primary=False)
            tgt.store.get_replica(fid).add_referrer(referrer.node_id)
        return net, referrer, (f1, t1), (f2, t2)

    def test_target_that_shed_replica_mid_rebind_is_skipped(self, monkeypatch):
        from repro.core.node import PastNode

        net, referrer, (f1, t1), (f2, t2) = self.wire_two_pointers()
        delivered = []
        orig = PastNode.on_referrer_failed

        def wrapped(self, fid, failed_id, failed_was_primary):
            if fid in (f1, f2) and failed_id == referrer.node_id:
                delivered.append((self.node_id, fid))
                if self is t1 and fid == f1:
                    # While t1's rebind is in flight, t2 sheds its copy
                    # (migration or a concurrent repair absorbed it).
                    t2.store.drop_replica(f2)
            return orig(self, fid, failed_id, failed_was_primary)

        monkeypatch.setattr(PastNode, "on_referrer_failed", wrapped)
        net.crash_node(referrer.node_id)
        net.process_failure_detection(referrer.node_id)
        assert (t1.node_id, f1) in delivered
        assert (t2.node_id, f2) not in delivered, (
            "a target without the replica was told about a dead referrer"
        )

    def test_both_targets_delivered_when_nothing_interleaves(self, monkeypatch):
        from repro.core.node import PastNode

        net, referrer, (f1, t1), (f2, t2) = self.wire_two_pointers()
        delivered = []
        orig = PastNode.on_referrer_failed

        def wrapped(self, fid, failed_id, failed_was_primary):
            if fid in (f1, f2) and failed_id == referrer.node_id:
                delivered.append((self.node_id, fid))
            return orig(self, fid, failed_id, failed_was_primary)

        monkeypatch.setattr(PastNode, "on_referrer_failed", wrapped)
        net.crash_node(referrer.node_id)
        net.process_failure_detection(referrer.node_id)
        assert (t1.node_id, f1) in delivered
        assert (t2.node_id, f2) in delivered


class TestMaintainAfterJoinConfirmReread:
    """_maintain_after_join: _restore_file_invariant suspends at its
    repair RPCs; a displaced holder whose primary was dropped in that
    window must not be prompted to discard."""

    def stage(self, seed=70):
        from repro.pastry import idspace as ids

        net, fids = build_loaded(seed=seed)
        for fid in fids:
            holder = holders_of(net, fid)[0]
            key = ids.routing_key(fid)
            cert = holder.store.certificate_for(fid)
            kset = holder.leafset.closest_nodes(key, cert.k)
            if holder.node_id not in kset:
                continue
            new_id = next((m for m in kset if m != holder.node_id), None)
            if new_id is None:
                continue
            picks = holder.leafset.closest_nodes(key, cert.k + 1)
            old_kset = [m for m in picks if m != new_id][: cert.k]
            displaced = next((m for m in old_kset if m not in kset), None)
            if displaced is None:
                continue
            displaced_node = net.past_node_or_none(displaced)
            if displaced_node is None or displaced_node.store.holds_file(fid):
                continue
            if not displaced_node.store.can_accept(
                cert.size, displaced_node.config.t_pri
            ):
                continue
            displaced_node.store.store_replica(cert, diverted=False)
            return net, fid, holder, new_id, displaced_node
        raise AssertionError("no displaceable holder at this seed")

    def test_displaced_primary_dropped_mid_restore_skips_discard(
        self, monkeypatch
    ):
        from repro.core.node import PastNode

        net, fid, holder, new_id, displaced_node = self.stage()
        orig_restore = PastNode._restore_file_invariant

        def restore_and_interleave(self, fid_, newcomer_id=None):
            result = orig_restore(self, fid_, newcomer_id=newcomer_id)
            if fid_ == fid and newcomer_id == new_id:
                # A concurrent repair retires the displaced holder's
                # copy while the restore RPCs are in flight.
                displaced_node.store.drop_replica(fid)
            return result

        discards = []
        orig_discard = PastNode.maybe_discard

        def counting_discard(self, fid_):
            if self is displaced_node and fid_ == fid:
                discards.append(fid_)
            return orig_discard(self, fid_)

        monkeypatch.setattr(
            PastNode, "_restore_file_invariant", restore_and_interleave
        )
        monkeypatch.setattr(PastNode, "maybe_discard", counting_discard)
        holder._maintain_after_join(new_id)
        assert discards == [], (
            "a holder without the primary was prompted to discard"
        )

    def test_displaced_holder_prompted_when_nothing_interleaves(
        self, monkeypatch
    ):
        from repro.core.node import PastNode

        net, fid, holder, new_id, displaced_node = self.stage()
        discards = []
        orig_discard = PastNode.maybe_discard

        def counting_discard(self, fid_):
            if self is displaced_node and fid_ == fid:
                discards.append(fid_)
            return orig_discard(self, fid_)

        monkeypatch.setattr(PastNode, "maybe_discard", counting_discard)
        holder._maintain_after_join(new_id)
        assert discards == [fid]


class TestPastJoinConfirmReread:
    def join_with_crashed_terminus(self, seed):
        """Admit one node while the join route's terminus crashes just
        after the route returns (the route's last suspension point)."""
        net = build_past(24, k=3, l=8, seed=seed, cache_policy="none")
        pastry = net.pastry
        route = pastry.route
        crashed = []

        def interposed(origin_id, key, message=None, **kwargs):
            result = route(origin_id, key, message=message, **kwargs)
            if not crashed and len(result.path) > 1:
                crashed.append(result.path[-1])
                pastry.mark_failed(result.path[-1])
            return result

        pastry.route = interposed
        newcomer = net.add_node(2_000_000)[0]
        return net, newcomer, crashed

    def test_path_node_crashed_mid_join_is_skipped(self):
        """PAST's join reads the state of every node on its join route; a
        path node that crashed while the route was in flight must be left
        out, not looked up in the live registry."""
        for seed in range(71, 91):
            net, newcomer, crashed = self.join_with_crashed_terminus(seed)
            if crashed:
                break
        assert crashed, "no join route had more than one hop"
        assert newcomer.node_id in net.pastry.node_ids
        assert crashed[0] not in net.pastry.node_ids
        # The leaf set came from the last live node of the path instead.
        assert len(newcomer.pastry.leafset) > 0
