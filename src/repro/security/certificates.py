"""File certificates, store receipts and reclaim certificates (§2.2).

* A **file certificate** is issued (and signed) by the owner's smartcard
  at insert time.  It binds the fileId to the content hash, the
  replication factor ``k``, the salt and a creation date, letting storage
  nodes verify what they are asked to store and letting readers verify
  what they fetched.
* A **store receipt** is returned by each node that accepted a replica;
  the client checks that it collected ``k`` distinct receipts.
* A **reclaim certificate** proves to replica holders that the party
  requesting reclamation owns the file; **reclaim receipts** flow back and
  are redeemed against the owner's storage quota.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable

from .keys import KeyPair


class CertificateError(ValueError):
    """A certificate failed verification."""


def simulated_content_hash(file_id: int, size: int) -> bytes:
    """Stand-in for SHA-1 over file content.

    The simulator usually does not materialize file bytes; the hash is
    derived from the (quasi-unique) fileId and size, preserving the
    protocol property that a mismatch between certificate and received
    content is detectable.  When real bytes are supplied (small demo
    files, erasure-coded shards) :func:`content_hash` is used instead.
    """
    return hashlib.sha1(b"content|%d|%d" % (file_id, size)).digest()


def content_hash(content: bytes) -> bytes:
    """SHA-1 over actual file content (used when bytes are materialized)."""
    return hashlib.sha1(content).digest()


def corrupted_content_hash(file_id: int, size: int) -> bytes:
    """The hash a reader computes over rotted or torn on-disk bytes.

    The simulator flags corruption instead of flipping real bytes; this
    is the digest such a read observes — deterministically distinct from
    both :func:`simulated_content_hash` and any real content hash, so a
    verified read (recompute + compare against the certificate) detects
    the damage exactly as it would with materialized bytes.
    """
    return hashlib.sha1(b"corrupt|%d|%d" % (file_id, size)).digest()


#: An unmarked record's memo: equal to no key and no size, not even None.
_UNMARKED = object()


class SignedRecord:
    """Signing helpers: a record's signed bytes are ``_FORMAT % _fields(record)``.

    For the §2.2 records ``_fields`` is every field but the trailing
    ``signature``, in declaration order.

    A record is checked once per object: ``_signed_under`` remembers the
    public key its signature verified under.  That is exact because a
    record is frozen (a forgery is a new object, with no mark), a public
    key names one signer's pads for good, and only successes are kept.
    The mark is no dataclass field, so the wire schema does not see it.
    """

    _signed_under = _UNMARKED

    @classmethod
    def _sign(cls, key: KeyPair, *fields):
        """The record of ``fields`` (all but the signature), signed by ``key``."""
        record = cls(*fields, key.sign(cls._FORMAT % fields))
        object.__setattr__(record, "_signed_under", key.public)
        return record

    def _signed_by(self, public: bytes) -> bool:
        """Does ``signature`` verify over this record's bytes under ``public``?"""
        if self._signed_under == public:
            return True
        if not KeyPair.verify(public, self._FORMAT % self._fields(self), self.signature):
            return False
        object.__setattr__(self, "_signed_under", public)
        return True


@dataclass(frozen=True)
class FileCertificate(SignedRecord):
    """Signed metadata accompanying every inserted file."""

    file_id: int
    content_hash: bytes
    size: int
    k: int
    salt: int
    creation_date: int
    owner_public: bytes
    signature: bytes = field(repr=False, default=b"")

    _FORMAT = b"filecert|%d|%s|%d|%d|%d|%d|%s"
    _fields = attrgetter("file_id", "content_hash", "size", "k", "salt",
                         "creation_date", "owner_public")
    #: The size whose simulated content hash ``content_hash`` is, by construction.
    _hashed_size = _UNMARKED

    @staticmethod
    def issue(file_id: int, size: int, k: int, salt: int, creation_date: int,
              owner_key: KeyPair, content: bytes = None) -> "FileCertificate":
        if content is None:
            digest = simulated_content_hash(file_id, size)
        else:
            digest = content_hash(content)
        cert = FileCertificate._sign(
            owner_key, file_id, digest, size, k, salt, creation_date, owner_key.public
        )
        if content is None:
            object.__setattr__(cert, "_hashed_size", size)
        return cert

    def verify(self) -> None:
        """Check the owner signature and internal consistency.

        Storage nodes run this before accepting a replica; they also
        recompute the content hash of the received file and compare it to
        the certified one, which :meth:`verify_content` models.
        """
        if not self._signed_by(self.owner_public):
            raise CertificateError("file certificate signature invalid")
        if self.k < 1:
            raise CertificateError("file certificate has non-positive k")
        if self.size < 0:
            raise CertificateError("file certificate has negative size")

    def verify_content(self, received_size: int, content: bytes = None) -> None:
        """Recompute the content hashcode and compare with the certificate."""
        if content is None:
            if received_size == self._hashed_size:
                return
            digest = simulated_content_hash(self.file_id, received_size)
        else:
            digest = content_hash(content)
        if digest != self.content_hash:
            raise CertificateError("content hash mismatch")


@dataclass(frozen=True)
class StoreReceipt(SignedRecord):
    """Issued by a node that accepted responsibility for a replica."""

    file_id: int
    node_id: int
    diverted: bool
    node_public: bytes
    signature: bytes = field(repr=False, default=b"")

    _FORMAT = b"receipt|%d|%d|%d|%s"
    _fields = attrgetter("file_id", "node_id", "diverted", "node_public")

    @staticmethod
    def issue(file_id: int, node_id: int, diverted: bool, node_key: KeyPair) -> "StoreReceipt":
        return StoreReceipt._sign(node_key, file_id, node_id, diverted, node_key.public)

    def verify(self) -> None:
        if not self._signed_by(self.node_public):
            raise CertificateError("store receipt signature invalid")


@dataclass(frozen=True)
class ReclaimCertificate(SignedRecord):
    """Proves the legitimate owner is requesting storage reclamation."""

    file_id: int
    owner_public: bytes
    signature: bytes = field(repr=False, default=b"")

    _FORMAT = b"reclaim|%d|%s"
    _fields = attrgetter("file_id", "owner_public")

    @staticmethod
    def issue(file_id: int, owner_key: KeyPair) -> "ReclaimCertificate":
        return ReclaimCertificate._sign(owner_key, file_id, owner_key.public)

    def verify(self, expected_owner_public: bytes) -> None:
        """Replica holders check both signature and ownership."""
        if self.owner_public != expected_owner_public:
            raise CertificateError("reclaim requested by non-owner")
        if not self._signed_by(self.owner_public):
            raise CertificateError("reclaim certificate signature invalid")


@dataclass(frozen=True)
class ReclaimReceipt(SignedRecord):
    """Issued by a replica holder after freeing the storage."""

    file_id: int
    node_id: int
    freed_bytes: int
    node_public: bytes
    signature: bytes = field(repr=False, default=b"")

    _FORMAT = b"reclaimed|%d|%d|%d|%s"
    _fields = attrgetter("file_id", "node_id", "freed_bytes", "node_public")

    @staticmethod
    def issue(file_id: int, node_id: int, freed_bytes: int, node_key: KeyPair) -> "ReclaimReceipt":
        return ReclaimReceipt._sign(node_key, file_id, node_id, freed_bytes, node_key.public)

    def verify(self) -> None:
        if not self._signed_by(self.node_public):
            raise CertificateError("reclaim receipt signature invalid")


def one_per_node(receipts: Iterable, file_id: int) -> Dict[int, object]:
    """§2.2's receipt rule: a receipt counts once per node, and only for its fileId.

    Verifies every receipt (a forged one raises :class:`CertificateError`)
    and keeps, per nodeId, the first receipt for ``file_id``.
    """
    counted: Dict[int, object] = {}
    for receipt in receipts:
        receipt.verify()
        if receipt.file_id == file_id:
            counted.setdefault(receipt.node_id, receipt)
    return counted
