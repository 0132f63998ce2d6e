"""Tests for replica diversion (§3.3) and file diversion (§3.4).

These exercise the A/B/C pointer protocol directly: node A (a primary
store that cannot accommodate a replica) diverts to node B in its leaf
set and installs pointers on itself and on C, the k+1-th closest node.
"""

import pytest

from repro.pastry import idspace
from tests.conftest import build_past, fill_network


def diversion_scenario(seed=70, k=3):
    """A network where one insert is forced to divert.

    Returns (net, owner, result) with result.replica_diversions >= 1.
    All nodes are large except the ones nearest a chosen fileId, so the
    primary store must divert into the leaf set.
    """
    import random

    net = build_past(n=24, capacity=4_000_000, k=k, seed=seed, t_pri=0.1, t_div=0.05)
    owner = net.create_client("owner")
    rng = random.Random(seed)
    # Fill the k nodes closest to a probe key almost to the brim so the
    # next replica for that key cannot be accepted locally.
    result = None
    for attempt in range(200):
        probe = net.insert(f"probe-{attempt}", owner, 200_000, net.nodes()[0].node_id)
        assert probe.success
        if probe.replica_diversions:
            result = probe
            break
        key = idspace.routing_key(probe.file_id)
        for member in net.pastry.k_closest_live(key, k):
            store = net.past_node(member).store
            filler = store.free - 100_000  # next 200k file exceeds t_pri * free
            if filler > 0:
                cert = owner.issue_file_certificate(
                    rng.getrandbits(idspace.FILE_ID_BITS), filler, 1, 0, 0
                )
                store.store_replica(cert, diverted=False)
                net._registry[cert.file_id] = cert
    return net, owner, result


class TestReplicaDiversion:
    def test_diversion_happens_under_local_pressure(self):
        net, owner, result = diversion_scenario()
        assert result is not None, "no diversion was triggered"
        assert result.success
        assert result.replica_diversions >= 1

    def test_pointer_on_A_targets_replica_on_B(self):
        net, owner, result = diversion_scenario()
        fid = result.file_id
        key = idspace.routing_key(fid)
        kset = net.pastry.k_closest_live(key, 3)
        pointers = [
            (m, net.past_node(m).store.pointers[fid])
            for m in kset
            if fid in net.past_node(m).store.pointers
        ]
        assert pointers, "a diverting node A must hold a pointer"
        for a_id, pointer in pointers:
            assert pointer.primary
            b = net.past_node(pointer.target_id)
            replica = b.store.diverted_in[fid]
            assert replica.diverted
            assert a_id in replica.referrers

    def test_B_outside_replica_set(self):
        net, owner, result = diversion_scenario()
        fid = result.file_id
        key = idspace.routing_key(fid)
        kset = set(net.pastry.k_closest_live(key, 3))
        for m in kset:
            pointer = net.past_node(m).store.pointers.get(fid)
            if pointer is not None and pointer.primary:
                assert pointer.target_id not in kset

    def test_backup_pointer_on_C(self):
        net, owner, result = diversion_scenario()
        fid = result.file_id
        key = idspace.routing_key(fid)
        kset = set(net.pastry.k_closest_live(key, 3))
        backups = [
            n for n in net.nodes()
            if fid in n.store.pointers
            and not n.store.pointers[fid].primary
        ]
        for c in backups:
            assert c.node_id not in kset
        # Either a backup exists or B itself is the k+1-th closest node.
        if not backups:
            k_plus_1 = net.pastry.k_closest_live(key, 4)[-1]
            assert net.past_node(k_plus_1).store.holds_file(fid)

    def test_diverted_lookup_costs_one_extra_hop(self):
        net, owner, result = diversion_scenario()
        fid = result.file_id
        key = idspace.routing_key(fid)
        # Look up directly from the diverting node A: served via pointer.
        for m in net.pastry.k_closest_live(key, 3):
            pointer = net.past_node(m).store.pointers.get(fid)
            if pointer is not None and pointer.primary:
                res = net.lookup(fid, m)
                assert res.success
                assert res.source == "pointer"
                assert res.hops == 1  # 0 routing hops + 1 pointer chase
                return
        pytest.skip("no primary pointer found")

    def test_diversion_target_has_max_free_space(self):
        """§3.3.1: B is the eligible leaf-set node with maximal free space."""
        net = build_past(n=16, capacity=1_000_000, k=2, l=16, seed=71)
        owner = net.create_client("owner")
        probe = net.insert("probe", owner, 10_000, net.nodes()[0].node_id)
        key = idspace.routing_key(probe.file_id)
        kset = net.pastry.k_closest_live(key, 2)
        a = net.past_node(kset[0])
        # Fill A so the next replica must divert.
        filler = owner.issue_file_certificate(1, a.store.free - 1_000, 1, 0, 0)
        a.store.store_replica(filler, diverted=False)
        eligible = [
            net.past_node(m)
            for m in a.leafset.members()
            if m not in kset
        ]
        expected_b = max(eligible, key=lambda n: (n.store.free, -n.node_id))
        cert = owner.issue_file_certificate(2, 5_000, 2, 0, 0)
        b_id = a._divert_replica(cert, kset)
        assert b_id == expected_b.node_id

    def test_diverted_replica_uses_t_div_policy(self):
        """B applies the stricter t_div threshold."""
        net = build_past(n=10, capacity=1_000_000, k=2, seed=72, t_pri=0.5, t_div=0.01)
        owner = net.create_client("owner")
        node = net.nodes()[0]
        cert = owner.issue_file_certificate(1, 500_000, 2, 0, 0)
        # 500k/1M = 0.5 > t_div: B must reject it as a diverted replica.
        assert not node.accept_diverted_replica(cert, referrer_id=1)
        small = owner.issue_file_certificate(2, 5_000, 2, 0, 0)
        assert node.accept_diverted_replica(small, referrer_id=1)


def choose_by_max_over_candidates(node, file_id, replica_set):
    """``_choose_diversion_target`` as it was before it became one pass: the
    full candidate list, then a keyed ``max`` (or the ablation's one draw)."""
    exclude = set(replica_set) | {node.node_id}
    candidates = []
    for member_id in node.leafset.sorted_members():
        member = node.network.past_node_or_none(member_id)
        if member_id in exclude or member is None or member.store.holds_file(file_id):
            continue
        candidates.append(member)
    if not candidates:
        return None
    if node.config.divert_target_policy == "random":
        return node.network.rng.choice(candidates).node_id
    return max(candidates, key=lambda n: (n.store.free, -n.node_id)).node_id


class TestReclaimOfADivertedFile:
    @pytest.mark.parametrize("seed", [70, 71])
    def test_reclaim_credits_what_the_insert_debited(self, seed):
        """A pointer holder frees nothing: the credit is k times the size,
        however many pointer receipts ride along with the k replica ones."""
        net, owner, result = diversion_scenario(seed=seed, k=3)
        used = owner.quota_used
        reclaim = net.reclaim(result.file_id, owner, net.nodes()[0].node_id)
        assert reclaim.success
        assert len(reclaim.receipts) > 3
        assert used - owner.quota_used == 3 * 200_000


class TestDiversionTargetChoice:
    """The one-pass pick of node B against the definition it replaced."""

    @pytest.mark.parametrize("policy", ["max_free", "random"])
    def test_same_target_as_max_over_the_candidate_list(self, policy):
        import random

        net = build_past(n=30, capacity=1_000_000, k=3, l=16, seed=75,
                         divert_target_policy=policy)
        owner = net.create_client("owner")
        rng = random.Random(75)
        net.crash_node(net.nodes()[-1].node_id)  # stale in leaf sets, not yet detected
        targets = []
        for trial in range(60):
            node = net.nodes()[rng.randrange(len(net.nodes()))]
            members = node.leafset.sorted_members()
            fid = rng.getrandbits(idspace.FILE_ID_BITS)
            cert = owner.issue_file_certificate(fid, 1_000, 3, 0, 0)
            for member_id in members:
                member = net.past_node_or_none(member_id)
                if member is None:
                    continue
                # Three levels of free space: ties everywhere.
                member.store.used = rng.choice([0, 400_000, 800_000])
                if rng.random() < 0.15:
                    member.store.store_replica(cert, diverted=rng.random() < 0.5)
            replica_set = (
                members if trial % 10 == 9  # every member excluded: no target
                else node.replica_set_for(idspace.routing_key(fid))
            )
            before = net.rng.getstate()
            want = choose_by_max_over_candidates(node, fid, replica_set)
            drawn = net.rng.getstate()
            net.rng.setstate(before)
            assert node._choose_diversion_target(fid, replica_set) == want
            assert net.rng.getstate() == drawn  # the ablation's one draw, or none
            targets.append(want)
        assert None in targets and len(set(targets)) > 10

    def test_holds_file_is_asked_only_of_a_member_that_would_win(self, monkeypatch):
        from repro.core.storage import LocalStore

        net = build_past(n=30, capacity=1_000_000, k=3, l=16, seed=76)
        node = net.nodes()[0]
        members = node.leafset.sorted_members()
        for rank, member_id in enumerate(members):
            net.past_node(member_id).store.used = 10 * rank  # first member is best
        asked = []
        real = LocalStore.holds_file
        monkeypatch.setattr(
            LocalStore, "holds_file",
            lambda store, fid: asked.append(store.node_id) or real(store, fid),
        )
        assert node._choose_diversion_target(1, []) == members[0]
        assert asked == [members[0]]


class TestLongReachDiversion:
    """§3.5: when no member of A's leaf set takes the replica under t_div,
    A asks its two extreme members for their leaf sets (a 2l reach)."""

    def test_a_full_leaf_set_diverts_to_the_freest_node_beyond_it(self, monkeypatch):
        import random

        from repro import audit
        from repro.core.node import PastNode
        from repro.netsim.transport import SimTransport

        net = build_past(n=40, capacity=1_000_000, k=3, l=8, seed=77)
        owner = net.create_client("owner")
        fid = net.insert("far", owner, 10_000, net.nodes()[0].node_id).file_id
        key = idspace.routing_key(fid)
        a = net.past_node(net.pastry.k_closest_live(key, 3)[0])
        cert = a.store.drop_replica(fid).certificate
        replica_set = a.leafset.closest_nodes(key, 3)
        c_id = a.leafset.closest_nodes(key, 4)[3]
        near = {a.node_id, *a.leafset.members(), *replica_set}
        reach = set()
        for extreme_id in a.leafset.extremes():
            reach |= net.past_node(extreme_id).leafset.members()
        candidates = sorted(reach - near)
        assert len(candidates) >= 3
        # A and its whole leaf set refuse; beyond it, free space differs.
        spare = random.Random(77).randrange(1, len(candidates) - 1)
        bumps = {m: net.past_node(m).store.free for m in near}
        bumps.update({m: 0 if i == spare else 1_000 * (i + 1)
                      for i, m in enumerate(candidates)})
        for m, delta in bumps.items():
            net.past_node(m).store.used += delta
        accepts = []
        real_send = SimTransport.send

        def recording_send(transport, origin_id, target_id, call, *args, **kwargs):
            if getattr(call, "__func__", None) is PastNode.accept_diverted_replica:
                accepts.append(target_id)
            return real_send(transport, origin_id, target_id, call, *args, **kwargs)

        monkeypatch.setattr(SimTransport, "send", recording_send)
        assert a.replicate_file(cert)
        monkeypatch.undo()
        for m, delta in bumps.items():
            net.past_node(m).store.used -= delta
        report = audit(net)
        assert report.ok, report.violations[:3]

        b_id = candidates[spare]
        assert accepts.count(b_id) == 1 and accepts[-1] == b_id
        assert a.store.pointers[fid].target_id == b_id and a.store.pointers[fid].primary
        c_pointer = net.past_node(c_id).store.pointers[fid]
        assert c_pointer.target_id == b_id and not c_pointer.primary
        assert net.past_node(b_id).store.diverted_in[fid].referrers == {a.node_id, c_id}


class TestFileDiversion:
    def test_resalting_changes_fileid_namespace_region(self):
        """Failed inserts retry with a new salt up to 4 attempts (§3.4)."""
        net = build_past(n=12, capacity=100_000, k=3, seed=73)
        owner = net.create_client("owner")
        result = net.insert("big", owner, 90_000, net.nodes()[0].node_id)
        assert not result.success
        assert result.attempts == 4

    def test_file_diversion_rescues_local_hotspot(self):
        """When one neighborhood is full, re-salting finds space elsewhere."""
        import random

        net = build_past(n=40, capacity=2_000_000, k=3, l=8, seed=74)
        owner = net.create_client("owner")
        rng = random.Random(74)
        # Saturate one contiguous arc of the ring.
        ids = net.pastry.node_ids
        for node_id in ids[:12]:
            store = net.past_node(node_id).store
            filler = owner.issue_file_certificate(
                rng.getrandbits(idspace.FILE_ID_BITS), store.free, 1, 0, 0
            )
            store.store_replica(filler, diverted=False)
            net._registry[filler.file_id] = filler
        # Inserts keyed into the full arc must eventually succeed by
        # diverting the whole file to another part of the namespace.
        successes = sum(
            net.insert(f"f{i}", owner, 50_000, ids[20]).success for i in range(30)
        )
        assert successes >= 28

    def test_file_diversions_counted_in_stats(self):
        net, owner, _ = diversion_scenario()
        diverted_events = [e for e in net.stats.inserts if e.file_diversions > 0]
        # The scenario may or may not have re-salted, but counting must be
        # consistent: file_diversions < max attempts.
        for e in diverted_events:
            assert 1 <= e.file_diversions <= 3


class TestReferrerFailed:
    """B hosts a diverted replica that A (primary pointer) and C (backup
    pointer) refer to: when one referrer fails, the other kind acts."""

    def stage(self):
        from tests.core.test_integrity import build_loaded, holders_of

        net, fids, _ = build_loaded()
        fid = fids[0]
        b = holders_of(net, fid)[0]
        a, c = [n for n in net.nodes()
                if n is not b and not n.store.references_file(fid)][:2]
        cert = net.certificate_of(fid)
        a.store.add_pointer(cert, b.node_id, primary=True)
        c.store.add_pointer(cert, b.node_id, primary=False)
        replica = b.store.get_replica(fid)
        replica.add_referrer(a.node_id)
        replica.add_referrer(c.node_id)
        return fid, a, b, c

    def test_backup_is_promoted_when_the_primary_referrer_fails(self):
        fid, a, b, c = self.stage()
        b.on_referrer_failed(fid, a.node_id, failed_was_primary=True)
        assert c.store.pointers[fid].primary
        assert a.node_id not in b.store.get_replica(fid).referrers

    def test_nobody_is_promoted_when_the_backup_referrer_fails(self):
        fid, a, b, c = self.stage()
        b.on_referrer_failed(fid, c.node_id, failed_was_primary=False)
        assert a.store.pointers[fid].primary
        assert not c.store.pointers[fid].primary
        assert c.node_id not in b.store.get_replica(fid).referrers
