"""Tests for the invariant auditor itself (it must catch what we break)."""

import pytest

from repro import audit
from repro.pastry import idspace
from tests.conftest import build_past


@pytest.fixture
def net():
    network = build_past(n=20, capacity=5_000_000, k=3, seed=110)
    owner = network.create_client("o")
    for i in range(10):
        network.insert(f"f{i}", owner, 10_000, network.nodes()[0].node_id)
    return network


def first_holder(net, fid):
    key = idspace.routing_key(fid)
    for m in net.pastry.k_closest_live(key, 3):
        if net.past_node(m).store.holds_file(fid):
            return net.past_node(m)
    raise AssertionError("no holder")


class TestAuditorDetections:
    def test_clean_network_passes(self, net):
        report = audit(net)
        assert report.ok
        assert report.files_checked == 10
        assert report.nodes_checked == 20

    def test_detects_missing_replica(self, net):
        fid = net.live_file_ids()[0]
        holder = first_holder(net, fid)
        holder.store.drop_replica(fid)
        report = audit(net)
        assert not report.ok
        assert any(v.kind == "replicas" for v in report.violations)

    def test_degraded_files_exempt(self, net):
        fid = net.live_file_ids()[0]
        first_holder(net, fid).store.drop_replica(fid)
        net.note_degraded_file(fid)
        report = audit(net)
        assert report.ok
        assert report.degraded_exempt == 1

    def test_detects_dangling_pointer(self, net):
        fid = net.live_file_ids()[0]
        holder = first_holder(net, fid)
        cert = holder.store.certificate_for(fid)
        stranger = net.nodes()[0]
        stranger.store.add_pointer(cert, target_id=123456789, primary=True)
        report = audit(net)
        assert any(v.kind == "pointer" for v in report.violations)

    def test_detects_pointer_to_nonholder(self, net):
        fid = net.live_file_ids()[0]
        holder = first_holder(net, fid)
        cert = holder.store.certificate_for(fid)
        a, b = net.nodes()[0], net.nodes()[1]
        if not b.store.holds_file(fid):
            a.store.add_pointer(cert, b.node_id, primary=True)
            report = audit(net)
            assert any(v.kind == "pointer" for v in report.violations)

    def test_detects_missing_referrer(self, net):
        fid = net.live_file_ids()[0]
        holder = first_holder(net, fid)
        replica = holder.store.get_replica(fid)
        replica.diverted = True  # pretend it is a diverted replica
        holder.store.diverted_in[fid] = holder.store.primaries.pop(fid)
        cert = holder.store.certificate_for(fid)
        stranger = net.nodes()[0]
        if stranger.node_id != holder.node_id:
            stranger.store.add_pointer(cert, holder.node_id, primary=False)
            report = audit(net)
            assert any("referrer" in v.detail for v in report.violations)

    def test_detects_accounting_drift(self, net):
        net.bytes_stored += 42
        report = audit(net)
        assert any(v.kind == "accounting" for v in report.violations)
        net.bytes_stored -= 42

    def test_detects_node_accounting_drift(self, net):
        node = net.nodes()[0]
        node.store.used += 7
        report = audit(net)
        assert any(v.kind == "accounting" for v in report.violations)
        node.store.used -= 7

    def test_skip_replica_check(self, net):
        fid = net.live_file_ids()[0]
        first_holder(net, fid).store.drop_replica(fid)
        report = audit(net, check_replicas=False)
        # The replica hole is invisible, but accounting still audited.
        assert all(v.kind != "replicas" for v in report.violations)


class TestOverlayAudit:
    def test_clean_network_passes_overlay_checks(self, net):
        report = audit(net, check_overlay=True)
        assert report.ok

    def test_detects_leafset_asymmetry(self, net):
        node = net.pastry.nodes()[0]
        member_id = sorted(node.leafset.members())[0]
        net.pastry.node(member_id).leafset.remove(node.node_id)
        report = audit(net, check_overlay=True)
        assert any(
            v.kind == "overlay" and "asymmetry" in v.detail
            for v in report.violations
        )

    @pytest.mark.parametrize("corrupt", [
        lambda ring: ring.reverse(),              # not ascending
        lambda ring: ring.append(ring[-1]),       # duplicate member
        lambda ring: ring.extend(range(1, 40)),   # more than l members
    ])
    def test_detects_malformed_leafset(self, net, corrupt):
        node = net.pastry.nodes()[0]
        corrupt(node.leafset._ring)
        report = audit(net, check_overlay=True)
        assert any(
            v.kind == "overlay" and "malformed" in v.detail
            and f"{node.node_id:#x}" in v.detail
            for v in report.violations
        )

    def test_detects_dead_overlay_entries(self, net):
        # Phase-1 crash with no keep-alive expiry: every surviving
        # leaf-set and routing-table reference to the victim is stale.
        victim = net.pastry.nodes()[0].node_id
        net.crash_node(victim)
        report = audit(net, check_overlay=True)
        dead_leaf = [
            v for v in report.violations
            if v.kind == "overlay" and "leaf set lists dead" in v.detail
        ]
        dead_route = [
            v for v in report.violations
            if v.kind == "overlay" and "routing table entry" in v.detail
        ]
        assert dead_leaf and dead_route

    def test_fixpoint_after_detection_passes(self, net):
        victim = net.pastry.nodes()[0].node_id
        net.crash_node(victim)
        net.process_failure_detection(victim)
        net.recover_node(victim)
        report = audit(net, check_overlay=True)
        assert not [v for v in report.violations if v.kind == "overlay"]

    def test_overlay_checks_are_opt_in(self, net):
        node = net.pastry.nodes()[0]
        member_id = sorted(node.leafset.members())[0]
        net.pastry.node(member_id).leafset.remove(node.node_id)
        assert audit(net).ok
