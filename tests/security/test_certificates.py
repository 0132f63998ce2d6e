"""Tests for file certificates, store receipts and reclaim certificates."""

import copy
import dataclasses

import pytest

from repro.net.codec import WireCodec
from repro.security import (
    CertificateError,
    FileCertificate,
    NodeIdentity,
    ReclaimCertificate,
    ReclaimReceipt,
    SmartcardIssuer,
    StoreReceipt,
)
from repro.security import certificates, keys
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


def checked(cls):
    """A golden record of ``cls`` whose signature has been checked once."""
    record = issue_golden(cls)
    verify(record)
    return record


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
        record = checked(cls)
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
        record = checked(cls)  # a forgery of a checked record is a new, unchecked object
        forged = dataclasses.replace(record, **{name: tampered(getattr(record, name))})
        with pytest.raises(CertificateError):
            verify(forged)

    @pytest.mark.parametrize("cls", list(SIGNED), ids=lambda c: c.__name__)
    def test_substituted_signer_is_refused(self, cls):
        record, eve = checked(cls), issue_golden(cls, label="eve")
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


@pytest.fixture
def hmacs(monkeypatch):
    """A running count of the HMACs computed (signatures made or checked)."""
    count = [0]
    tag = keys._tag

    def counting(*args):
        count[0] += 1
        return tag(*args)

    monkeypatch.setattr(keys, "_tag", counting)
    return count


class TestCheckedOnce:
    """A record remembers the key its signature verified under; nothing
    that could change the verdict can reach a remembered success."""

    @pytest.mark.parametrize("cls", list(SIGNED), ids=lambda c: c.__name__)
    def test_a_second_check_computes_nothing(self, cls, hmacs):
        record = checked(cls)
        before = hmacs[0]
        verify(record)
        assert hmacs[0] == before + (cls is NodeIdentity)  # the issuer's check is not memoized

    @pytest.mark.parametrize("cls", list(SIGNED), ids=lambda c: c.__name__)
    def test_a_checked_record_fails_under_another_key(self, cls, hmacs):
        record = checked(cls)
        eve = KeyPair("eve").public
        before = hmacs[0]
        assert not record._signed_by(eve)
        assert not record._signed_by(eve)
        assert hmacs[0] == before + 2
        assert record._signed_by(getattr(record, SIGNED[cls][0][-1]))

    @pytest.mark.parametrize("cls", list(SIGNED), ids=lambda c: c.__name__)
    def test_a_failed_check_raises_every_time(self, cls, hmacs):
        record = issue_golden(cls)
        forged = dataclasses.replace(record, signature=tampered(record.signature))
        before = hmacs[0]
        for _ in range(3):
            with pytest.raises(CertificateError):
                verify(forged)
        assert hmacs[0] == before + 3 * (1 + (cls is NodeIdentity))

    @pytest.mark.parametrize(
        "cls", [c for c in SIGNED if c is not NodeIdentity], ids=lambda c: c.__name__
    )
    def test_a_decoded_record_is_checked_in_full(self, cls, hmacs):
        """What a TCP node decodes is a new object: it checks every byte."""
        codec = WireCodec()
        record = checked(cls)
        decoded = codec.decode(codec.encode(record))
        assert decoded == record and decoded is not record
        before = hmacs[0]
        verify(decoded)
        assert hmacs[0] == before + 1
        forged = codec.decode(codec.encode(dataclasses.replace(record, signature=bytes(32))))
        with pytest.raises(CertificateError):
            verify(forged)

    @pytest.mark.parametrize("cls", list(SIGNED), ids=lambda c: c.__name__)
    def test_a_record_with_no_key_never_verifies(self, cls):
        """An unchecked record's mark equals no key, None included, built
        directly or decoded off the wire (which does not check types)."""
        signer = SIGNED[cls][0][-1]
        forged = dataclasses.replace(issue_golden(cls), **{signer: None, "signature": bytes(32)})
        forgeries = [forged]
        if cls is not NodeIdentity:  # not a wire message
            codec = WireCodec()
            forgeries.append(codec.decode(codec.encode(forged)))
        for record in forgeries:
            with pytest.raises((CertificateError, TypeError)):
                verify(record)

    @pytest.mark.parametrize("cls", list(SIGNED), ids=lambda c: c.__name__)
    def test_a_copy_of_a_checked_record_is_exact(self, cls):
        record, eve = checked(cls), KeyPair("eve").public
        for duplicate in (copy.copy(record), copy.deepcopy(record)):
            assert duplicate == record
            verify(duplicate)
            assert not duplicate._signed_by(eve)
            forged = dataclasses.replace(duplicate, **{SIGNED[cls][0][-1]: eve})
            with pytest.raises(CertificateError):
                verify(forged)

    def test_the_mark_is_not_a_field(self):
        record = checked(FileCertificate)
        assert "_signed_under" not in {f.name for f in dataclasses.fields(record)}
        assert "_signed_under" not in repr(record)

    def test_a_key_pair_registers_the_same_pads_every_time(self):
        first, second = KeyPair("twin", seed=b"s"), KeyPair("twin", seed=b"s")
        assert second.public == first.public
        assert keys._KEY_REGISTRY[first.public] == first._pads == second._pads


@pytest.fixture
def hashes(monkeypatch):
    """The (fileId, size) of every simulated content hash computed after it
    is set up (request it after ``cert``, whose issue hashes once)."""
    calls = []
    real = certificates.simulated_content_hash
    monkeypatch.setattr(
        certificates, "simulated_content_hash", lambda *a: calls.append(a) or real(*a)
    )
    return calls


class TestContentHashOnce:
    def test_a_simulated_certificate_skips_its_own_size(self, cert, hashes):
        cert.verify_content(1000)
        assert hashes == []
        with pytest.raises(CertificateError):
            cert.verify_content(999)
        assert hashes == [(123456, 999)]

    def test_an_unmarked_certificate_skips_no_size(self, cert, hashes):
        forged = dataclasses.replace(cert, size=None)
        with pytest.raises(TypeError):
            forged.verify_content(forged.size)
        assert hashes == [(123456, None)]

    def test_a_decoded_certificate_hashes_again(self, cert, hashes):
        codec = WireCodec()
        codec.decode(codec.encode(cert)).verify_content(1000)
        assert hashes == [(123456, 1000)]

    def test_a_certificate_over_real_bytes_is_not_marked(self, owner):
        cert = FileCertificate.issue(7, 3, 1, 0, 0, owner, content=b"abc")
        cert.verify_content(3, b"abc")
        with pytest.raises(CertificateError):
            cert.verify_content(3)  # the simulated hash of (7, 3) is not SHA-1(b"abc")
