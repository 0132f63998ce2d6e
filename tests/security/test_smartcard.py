"""Tests for smartcards: issuance, certification and storage quotas."""

import pytest

from repro.security import SmartcardIssuer
from repro.security.smartcard import QuotaExceededError


@pytest.fixture
def issuer():
    return SmartcardIssuer("test-issuer")


class TestIssuance:
    def test_card_certified_by_issuer(self, issuer):
        card = issuer.issue_card("alice")
        card.verify_issuer()

    def test_cards_have_distinct_keys(self, issuer):
        a = issuer.issue_card("alice")
        b = issuer.issue_card("bob")
        assert a.public_key != b.public_key

    def test_foreign_issuer_rejected(self, issuer):
        other = SmartcardIssuer("rogue", seed=b"rogue")
        card = issuer.issue_card("alice")
        card.issuer_public = other.keypair.public
        with pytest.raises(Exception):
            card.verify_issuer()


class TestQuota:
    def test_unmetered_by_default(self, issuer):
        card = issuer.issue_card("alice")
        assert card.quota_remaining() is None
        card.debit(10**12, 5)  # no limit, no exception

    def test_debit_charges_size_times_k(self, issuer):
        card = issuer.issue_card("alice", quota=1000)
        card.debit(100, 3)
        assert card.quota_used == 300
        assert card.quota_remaining() == 700

    def test_debit_over_quota_raises(self, issuer):
        card = issuer.issue_card("alice", quota=1000)
        with pytest.raises(QuotaExceededError):
            card.debit(400, 3)
        assert card.quota_used == 0  # failed debit must not charge

    def test_credit_refunds(self, issuer):
        card = issuer.issue_card("alice", quota=1000)
        card.debit(100, 3)
        card.credit(100, 3)
        assert card.quota_used == 0

    def test_credit_never_goes_negative(self, issuer):
        card = issuer.issue_card("alice", quota=1000)
        card.debit(100, 3)
        with pytest.raises(RuntimeError, match="over-credit"):
            card.credit(500, 2)
        assert card.quota_used == 300  # a refused credit refunds nothing

    def test_redeem_reclaim_receipts_credits(self, issuer):
        card = issuer.issue_card("alice", quota=10_000)
        card.debit(100, 3)
        node = issuer.issue_card("node-1")
        receipts = [
            node.issue_reclaim_receipt(7, i, 100) for i in range(3)
        ]
        card.redeem_reclaim_receipts(7, receipts)
        assert card.quota_used == 0

    def test_redeem_refuses_a_duplicated_receipt(self, issuer):
        card = issuer.issue_card("alice", quota=10_000)
        card.debit(100, 3)
        node = issuer.issue_card("node-1")
        receipts = [node.issue_reclaim_receipt(7, i, 100) for i in range(2)]
        card.redeem_reclaim_receipts(7, receipts + receipts[:1])
        assert card.quota_used == 100

    def test_redeem_refuses_a_receipt_for_another_file(self, issuer):
        card = issuer.issue_card("alice", quota=10_000)
        card.debit(100, 3)
        node = issuer.issue_card("node-1")
        receipts = [node.issue_reclaim_receipt(7, i, 100) for i in range(2)]
        card.redeem_reclaim_receipts(7, receipts + [node.issue_reclaim_receipt(8, 2, 100)])
        assert card.quota_used == 100

    def test_redeem_verifies_signatures(self, issuer):
        import dataclasses

        card = issuer.issue_card("alice", quota=10_000)
        node = issuer.issue_card("node-1")
        receipt = node.issue_reclaim_receipt(7, 1, 100)
        forged = dataclasses.replace(receipt, freed_bytes=10**9)
        with pytest.raises(Exception):
            card.redeem_reclaim_receipts(7, [forged])


class TestCertificateHelpers:
    def test_issue_file_certificate(self, issuer):
        card = issuer.issue_card("alice")
        cert = card.issue_file_certificate(9, 500, 3, 1, 0)
        cert.verify()
        assert cert.owner_public == card.public_key

    def test_issue_store_receipt(self, issuer):
        card = issuer.issue_card("node")
        receipt = card.issue_store_receipt(9, 77, diverted=False)
        receipt.verify()

    def test_issue_reclaim_certificate(self, issuer):
        card = issuer.issue_card("alice")
        rc = card.issue_reclaim_certificate(9)
        rc.verify(card.public_key)
