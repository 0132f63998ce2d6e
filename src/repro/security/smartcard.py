"""Smartcards and the card issuer (§2.3).

Each PAST node and each user holds a smartcard with a private/public key
pair; the card's public key is signed by the issuer for certification.
Cards generate and verify certificates and maintain the user's storage
quota, ensuring demand for storage cannot exceed supply.  Read-only
clients need no card.
"""

from __future__ import annotations

from typing import Optional

from .certificates import (
    CertificateError,
    FileCertificate,
    ReclaimCertificate,
    ReclaimReceipt,
    StoreReceipt,
    one_per_node,
)
from .keys import KeyPair


class QuotaExceededError(RuntimeError):
    """An insert would exceed the owner's storage quota."""


class Smartcard:
    """One smartcard: keys, certificate generation, quota ledger.

    The quota is debited by ``size * k`` at insert time and credited back
    when verified reclaim receipts are presented, as described in §2.2.
    """

    def __init__(self, label: str, issuer: "SmartcardIssuer", quota: Optional[int] = None):
        self.label = label
        self.keypair = KeyPair(label, seed=issuer.seed)
        self.issuer_signature = issuer.certify(self.keypair.public)
        self.issuer_public = issuer.keypair.public
        self.quota = quota  # None = unmetered (used by infrastructure tests)
        self.quota_used = 0

    @property
    def public_key(self) -> bytes:
        return self.keypair.public

    def verify_issuer(self) -> None:
        """Check that this card was certified by its claimed issuer."""
        if not KeyPair.verify(self.issuer_public, self.keypair.public, self.issuer_signature):
            raise CertificateError("smartcard not certified by issuer")

    # ----------------------------------------------------------- quota side

    def quota_remaining(self) -> Optional[int]:
        if self.quota is None:
            return None
        return self.quota - self.quota_used

    def debit(self, size: int, k: int) -> None:
        """Debit ``size * k`` against the quota (raises if insufficient)."""
        need = size * k
        if self.quota is not None and self.quota_used + need > self.quota:
            raise QuotaExceededError(
                f"quota exceeded: need {need}, remaining {self.quota - self.quota_used}"
            )
        self.quota_used += need

    def credit(self, size: int, k: int) -> None:
        """Credit the quota back (on failed insert or verified reclaim).

        Raises on an over-credit: that refunds storage never debited.
        """
        if size * k > self.quota_used:
            raise RuntimeError(f"over-credit: {size * k} returned, {self.quota_used} debited")
        self.quota_used -= size * k

    def redeem_reclaim_receipts(self, file_id: int, receipts) -> None:
        """Verify reclaim receipts and credit the storage they freed.

        The credit is the sum of ``freed_bytes`` over the receipts that
        :func:`one_per_node` counts for ``file_id``: a node that held only
        a pointer to a diverted replica frees nothing, and its receipt
        says so.
        """
        counted = one_per_node(receipts, file_id).values()
        self.credit(sum(r.freed_bytes for r in counted), 1)

    # ---------------------------------------------------- certificate side

    def issue_file_certificate(
        self,
        file_id: int,
        size: int,
        k: int,
        salt: int,
        creation_date: int,
        content: bytes = None,
    ) -> FileCertificate:
        return FileCertificate.issue(
            file_id, size, k, salt, creation_date, self.keypair, content=content
        )

    def issue_store_receipt(self, file_id: int, node_id: int, diverted: bool) -> StoreReceipt:
        return StoreReceipt.issue(file_id, node_id, diverted, self.keypair)

    def issue_reclaim_certificate(self, file_id: int) -> ReclaimCertificate:
        return ReclaimCertificate.issue(file_id, self.keypair)

    def issue_reclaim_receipt(self, file_id: int, node_id: int, freed: int) -> ReclaimReceipt:
        return ReclaimReceipt.issue(file_id, node_id, freed, self.keypair)


class SmartcardIssuer:
    """The card issuer whose private key certifies all smartcards."""

    def __init__(self, label: str = "issuer", seed: bytes = b"past"):
        self.seed = seed
        self.keypair = KeyPair(f"issuer:{label}", seed=seed)

    def certify(self, card_public: bytes) -> bytes:
        return self.keypair.sign(card_public)

    def issue_card(self, label: str, quota: Optional[int] = None) -> Smartcard:
        return Smartcard(label, self, quota=quota)
