"""Tests for file certificates, store receipts and reclaim certificates."""

import dataclasses

import pytest

from repro.security import (
    CertificateError,
    FileCertificate,
    NodeIdentity,
    ReclaimCertificate,
    ReclaimReceipt,
    SmartcardIssuer,
    StoreReceipt,
)
from repro.security.keys import KeyPair

#: The signed fields of each signed record, its signer's key field last,
#: and the pinned signature tag of the record :func:`issue_golden` makes.
SIGNED = {
    FileCertificate: (
        ("file_id", "content_hash", "size", "k", "salt", "creation_date", "owner_public"),
        "5ffec3cf99fa0a966782dd9c90702fb3d26a8a99b1518b08140cae422ce76686",
    ),
    StoreReceipt: (
        ("file_id", "node_id", "diverted", "node_public"),
        "55a074606b075d4fa15e7a45b8e7252e56dda7266d712217d83482fc031f8d04",
    ),
    ReclaimCertificate: (
        ("file_id", "owner_public"),
        "cb3fe4edfa0b88d4afc1c070f86a037c22e0968923319adaeb7b0290a3049fd9",
    ),
    ReclaimReceipt: (
        ("file_id", "node_id", "freed_bytes", "node_public"),
        "3aa74b13db2b842df96be75f87423927d6cdbb8620268e9153bce0b271310381",
    ),
    NodeIdentity: (
        ("node_id", "address", "public_key"),
        "885c8bbea4cd8d08d05dd8af8fbe066a310ada1a440435ba3a8ca236fcfad83a",
    ),
}


def issue_golden(cls, label="golden-signer"):
    """One record of ``cls``, signed by the fixed card ``label``."""
    card = SmartcardIssuer("golden").issue_card(label)
    key = card.keypair
    return {
        FileCertificate: lambda: FileCertificate.issue(123456, 1000, 3, 42, 7, key),
        StoreReceipt: lambda: StoreReceipt.issue(99, 1234, True, key),
        ReclaimCertificate: lambda: ReclaimCertificate.issue(55, key),
        ReclaimReceipt: lambda: ReclaimReceipt.issue(55, 1234, 800, key),
        NodeIdentity: lambda: NodeIdentity.issue(card, 12345, "a.past.example:4160"),
    }[cls]()


def verify(record):
    if isinstance(record, ReclaimCertificate):
        record.verify(record.owner_public)
    else:
        record.verify()


def tampered(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, bytes):
        return bytes([value[0] ^ 1]) + value[1:]
    return value + "x"


class TestSignedRecords:
    """One table over the five signed types: every signed field is signed."""

    @pytest.mark.parametrize("cls", list(SIGNED), ids=lambda c: c.__name__)
    def test_golden_tag(self, cls):
        record = issue_golden(cls)
        verify(record)
        assert record.signature.hex() == SIGNED[cls][1]

    @pytest.mark.parametrize("cls", list(SIGNED), ids=lambda c: c.__name__)
    def test_every_field_but_the_signature_is_signed(self, cls):
        unsigned = {f.name for f in dataclasses.fields(cls)} - {
            "signature", "issuer_public", "issuer_signature",
        }
        assert set(SIGNED[cls][0]) == unsigned

    @pytest.mark.parametrize(
        "cls,name",
        [(cls, name) for cls, (names, _) in SIGNED.items() for name in names],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_tampered_field_is_refused(self, cls, name):
        record = issue_golden(cls)
        forged = dataclasses.replace(record, **{name: tampered(getattr(record, name))})
        with pytest.raises(CertificateError):
            verify(forged)

    @pytest.mark.parametrize("cls", list(SIGNED), ids=lambda c: c.__name__)
    def test_substituted_signer_is_refused(self, cls):
        record, eve = issue_golden(cls), issue_golden(cls, label="eve")
        signer = SIGNED[cls][0][-1]
        with pytest.raises(CertificateError):
            verify(dataclasses.replace(record, **{signer: getattr(eve, signer)}))
        with pytest.raises(CertificateError):
            verify(dataclasses.replace(record, signature=eve.signature))


@pytest.fixture
def owner():
    return KeyPair("owner")


@pytest.fixture
def cert(owner):
    return FileCertificate.issue(
        file_id=123456, size=1000, k=3, salt=42, creation_date=7, owner_key=owner
    )


class TestFileCertificate:
    def test_verify_passes(self, cert):
        cert.verify()

    def test_contains_metadata(self, cert, owner):
        assert cert.file_id == 123456
        assert cert.size == 1000
        assert cert.k == 3
        assert cert.salt == 42
        assert cert.creation_date == 7
        assert cert.owner_public == owner.public

    def test_verify_content_passes_on_match(self, cert):
        cert.verify_content(1000)

    def test_verify_content_detects_corruption(self, cert):
        with pytest.raises(CertificateError):
            cert.verify_content(999)

    def test_rejects_nonpositive_k(self, owner):
        bad = FileCertificate.issue(1, 10, 1, 0, 0, owner)
        forged = dataclasses.replace(bad, k=0)
        with pytest.raises(CertificateError):
            forged.verify()


class TestStoreReceipt:
    def test_roundtrip(self):
        node = KeyPair("node")
        receipt = StoreReceipt.issue(99, 1234, diverted=True, node_key=node)
        receipt.verify()
        assert receipt.diverted is True

    def test_rejects_tampered_node(self):
        node = KeyPair("node")
        receipt = StoreReceipt.issue(99, 1234, False, node)
        forged = dataclasses.replace(receipt, node_id=5678)
        with pytest.raises(CertificateError):
            forged.verify()

    def test_rejects_flipped_diversion_flag(self):
        node = KeyPair("node")
        receipt = StoreReceipt.issue(99, 1234, False, node)
        forged = dataclasses.replace(receipt, diverted=True)
        with pytest.raises(CertificateError):
            forged.verify()


class TestReclaim:
    def test_reclaim_certificate_roundtrip(self, owner):
        rc = ReclaimCertificate.issue(55, owner)
        rc.verify(owner.public)

    def test_reclaim_by_non_owner_rejected(self, owner):
        eve = KeyPair("eve")
        rc = ReclaimCertificate.issue(55, eve)
        with pytest.raises(CertificateError):
            rc.verify(owner.public)

    def test_reclaim_receipt_roundtrip(self):
        node = KeyPair("node")
        receipt = ReclaimReceipt.issue(55, 1234, freed_bytes=800, node_key=node)
        receipt.verify()
        assert receipt.freed_bytes == 800

    def test_reclaim_receipt_rejects_tampered_bytes(self):
        node = KeyPair("node")
        receipt = ReclaimReceipt.issue(55, 1234, 800, node)
        forged = dataclasses.replace(receipt, freed_bytes=1)
        with pytest.raises(CertificateError):
            forged.verify()
