"""Tests for the Insert operation: placement, receipts, quotas, collisions."""

import random
from collections import Counter

import pytest

from repro.pastry import idspace
from repro.security import certificates, keys
from repro.security.certificates import SignedRecord
from tests.conftest import build_past


@pytest.fixture
def net():
    return build_past(n=30, capacity=5_000_000, k=3, seed=50)


@pytest.fixture
def owner(net):
    return net.create_client("owner")


def gateway(net, i=0):
    return net.nodes()[i].node_id


class TestPlacement:
    def test_insert_returns_fileid_and_receipts(self, net, owner):
        result = net.insert("a.txt", owner, 10_000, gateway(net))
        assert result.success
        assert result.file_id is not None
        assert len(result.receipts) == 3

    def test_receipts_from_distinct_nodes(self, net, owner):
        result = net.insert("a.txt", owner, 10_000, gateway(net))
        nodes = {r.node_id for r in result.receipts}
        assert len(nodes) == 3

    def test_replicas_on_k_numerically_closest(self, net, owner):
        result = net.insert("a.txt", owner, 10_000, gateway(net))
        key = idspace.routing_key(result.file_id)
        kset = net.pastry.k_closest_live(key, 3)
        for member in kset:
            assert net.past_node(member).store.references_file(result.file_id)

    def test_insert_from_every_origin_converges(self, net, owner):
        results = [
            net.insert(f"file-{i}", owner, 5_000, node.node_id)
            for i, node in enumerate(net.nodes())
        ]
        assert all(r.success for r in results)
        for r in results:
            key = idspace.routing_key(r.file_id)
            kset = net.pastry.k_closest_live(key, 3)
            holders = [
                m for m in kset if net.past_node(m).store.references_file(r.file_id)
            ]
            assert len(holders) == 3

    def test_utilization_accounts_k_copies(self, net, owner):
        before = net.bytes_stored
        net.insert("a.txt", owner, 10_000, gateway(net))
        assert net.bytes_stored == before + 3 * 10_000

    def test_zero_byte_file(self, net, owner):
        """The NLANR trace contains 0-byte files; they must insert fine."""
        result = net.insert("empty", owner, 0, gateway(net))
        assert result.success

    def test_replicas_hold_verified_certificates(self, net, owner):
        result = net.insert("a.txt", owner, 10_000, gateway(net))
        key = idspace.routing_key(result.file_id)
        for member in net.pastry.k_closest_live(key, 3):
            store = net.past_node(member).store
            replica = store.get_replica(result.file_id)
            if replica is not None:
                replica.certificate.verify()
                assert replica.certificate.size == 10_000


class TestFailureModes:
    def test_oversized_file_fails_with_reason(self, net, owner):
        result = net.insert("huge", owner, 50_000_000, gateway(net))
        assert not result.success
        assert result.failure_reason is not None
        assert result.attempts == net.config.max_insert_attempts

    def test_failed_insert_leaves_no_replicas(self, net, owner):
        before = net.bytes_stored
        net.insert("huge", owner, 50_000_000, gateway(net))
        assert net.bytes_stored == before

    def test_failed_insert_refunds_quota(self, net):
        limited = net.create_client("limited", quota=10**12)
        net.insert("huge", limited, 50_000_000, gateway(net))
        assert limited.quota_used == 0

    def test_quota_exhaustion_blocks_insert(self, net):
        limited = net.create_client("limited", quota=25_000)
        ok = net.insert("one", limited, 5_000, gateway(net))
        assert ok.success  # 15_000 of 25_000 used
        blocked = net.insert("two", limited, 5_000, gateway(net))
        assert not blocked.success
        assert "quota" in blocked.failure_reason

    def test_successful_insert_debits_quota(self, net):
        limited = net.create_client("limited", quota=100_000)
        net.insert("a", limited, 10_000, gateway(net))
        assert limited.quota_used == 30_000

    def test_insert_stats_recorded(self, net, owner):
        net.insert("a.txt", owner, 10_000, gateway(net))
        net.insert("huge", owner, 50_000_000, gateway(net))
        assert net.stats.insert_attempts == 2
        assert net.stats.insert_successes == 1
        assert net.stats.insert_failures == 1


class TestCollision:
    def test_duplicate_fileid_rejected_then_resalted(self, net, owner):
        """A fileId collision rejects the later insert; the client re-salts."""
        first = net.insert("a.txt", owner, 1_000, gateway(net))
        # Force the same salt sequence by replaying the RNG state.
        net.rng = random.Random(999)
        second = net.insert("b.txt", owner, 1_000, gateway(net))
        assert first.success and second.success
        assert first.file_id != second.file_id

    def test_registry_knows_inserted_files(self, net, owner):
        result = net.insert("a.txt", owner, 1_000, gateway(net))
        assert net.is_file_registered(result.file_id)
        assert net.certificate_of(result.file_id).size == 1_000
        assert net.owner_of(result.file_id) == owner.public_key


class TestReplicationFactor:
    def test_custom_k_within_bound(self):
        net = build_past(n=20, capacity=5_000_000, k=5, l=16, seed=51)
        owner = net.create_client("o")
        result = net.insert("a", owner, 1_000, net.nodes()[0].node_id)
        assert len(result.receipts) == 5

    def test_insufficient_nodes_for_k(self):
        net = build_past(n=2, capacity=5_000_000, k=3, seed=52)
        owner = net.create_client("o")
        result = net.insert("a", owner, 1_000, net.nodes()[0].node_id)
        assert not result.success
        assert "insufficient" in result.failure_reason


class TestClientCountsDistinctReceipts:
    """The client accepts an insert only on k verified receipts for its own
    fileId from k distinct nodes (security/certificates.py)."""

    @staticmethod
    def forge(monkeypatch, rewrite):
        from repro.core.node import PastNode

        real = PastNode.coordinate_insert

        def coordinate(node, request):
            ok = real(node, request)
            if ok:
                request.receipts = rewrite(node, request.receipts)
            return ok

        monkeypatch.setattr(PastNode, "coordinate_insert", coordinate)

    def test_a_repeated_receipt_does_not_count_twice(self, monkeypatch):
        net = build_past(n=24, capacity=5_000_000, k=5, seed=40)
        owner = net.create_client("o")
        self.forge(monkeypatch, lambda node, rs: rs[:-1] + rs[:1])
        with pytest.raises(RuntimeError, match="distinct receipts"):
            net.insert("dup", owner, 1_000, net.nodes()[0].node_id)

    def test_a_receipt_for_another_file_does_not_count(self, monkeypatch):
        net = build_past(n=24, capacity=5_000_000, k=5, seed=40)
        owner = net.create_client("o")

        def foreign(node, receipts):
            last = receipts[-1]
            signer = net.past_node(last.node_id).smartcard
            other = signer.issue_store_receipt(last.file_id ^ 1, last.node_id, last.diverted)
            other.verify()  # validly signed: only its fileId is wrong
            return receipts[:-1] + [other]

        self.forge(monkeypatch, foreign)
        with pytest.raises(RuntimeError, match="distinct receipts"):
            net.insert("foreign", owner, 1_000, net.nodes()[0].node_id)


class TestQuotaScalesWithK:
    def test_quota_debit_uses_per_insert_k(self):
        """A k=1 insert (e.g. an erasure shard) debits size x 1, not x k."""
        net = build_past(n=20, capacity=5_000_000, k=3, seed=53)
        owner = net.create_client("k1", quota=100_000)
        result = net.insert("shard", owner, 10_000, net.nodes()[0].node_id, k=1)
        assert result.success
        assert owner.quota_used == 10_000
        assert len(result.receipts) == 1


class TestWritePathSortsOnlyForTheReplicaSet:
    """"Am I among the k closest?" is asked at every hop of an insert or
    reclaim route and answered by rank; naming the replica set walks the
    leaf set, so neither an undiverted insert nor a reclaim sorts."""

    def test_no_sort_per_undiverted_insert_or_reclaim(self, monkeypatch):
        net = build_past(n=80, capacity=5_000_000, k=3, l=8, seed=51)
        owner = net.create_client("owner")
        sorts = []
        real = idspace.sort_by_distance
        monkeypatch.setattr(
            idspace, "sort_by_distance",
            lambda ids, target: sorts.append(target) or real(ids, target),
        )
        inserted, routed = [], 0
        for i, origin in enumerate(net.nodes()[::4]):
            del sorts[:]
            result = net.insert(f"f{i}", owner, 10_000, origin.node_id)
            assert result.success and result.attempts == 1
            assert result.replica_diversions == 0
            assert sorts == []
            inserted.append(result.file_id)
            routed += result.hops > 0
        assert routed > len(inserted) // 2  # the count is about routed requests
        for fid, origin in zip(inserted, net.nodes()[1::4]):
            del sorts[:]
            assert net.reclaim(fid, owner, origin.node_id).success
            assert sorts == []


class TestEachSignatureIsComputedOnce:
    """Nodes and clients share the simulator's record objects, so a check
    after the mint costs nothing: an insert computes one HMAC per record it
    signs and one simulated content hash per certificate, a reclaim one
    HMAC per record it signs."""

    def test_hmacs_equal_records_minted(self, monkeypatch):
        work = Counter()  # "hmac", "sha1", and records minted by type

        def counting(name, fn):
            def counted(*args):
                work[name] += 1
                return fn(*args)
            return counted

        sign = SignedRecord._sign.__func__
        net = build_past(n=24, capacity=500_000, k=3, seed=5, t_pri=0.1, t_div=0.05)
        owner = net.create_client("owner")
        monkeypatch.setattr(keys, "_tag", counting("hmac", keys._tag))
        monkeypatch.setattr(certificates, "simulated_content_hash",
                            counting("sha1", certificates.simulated_content_hash))
        monkeypatch.setattr(SignedRecord, "_sign", classmethod(
            lambda cls, *args: counting(cls.__name__, sign)(cls, *args)))
        rng = random.Random(5)
        origins = [node.node_id for node in net.nodes()]
        results = [
            net.insert(f"f{i}", owner, min(int(rng.lognormvariate(9, 1.5)) + 1, 400_000),
                       origins[rng.randrange(len(origins))])
            for i in range(300)
        ]
        accepted = [r for r in results if r.success]
        assert any(r.replica_diversions for r in accepted)  # §3.3 ran
        assert any(r.attempts > 1 for r in results)  # §3.4 re-salted
        assert work["hmac"] == work["FileCertificate"] + work["StoreReceipt"]
        assert work["sha1"] == work["FileCertificate"]

        work.clear()
        for result in accepted:
            assert net.reclaim(result.file_id, owner, origins[0]).success
        assert work["hmac"] == work["ReclaimCertificate"] + work["ReclaimReceipt"]
        assert work["ReclaimCertificate"] == len(accepted)
