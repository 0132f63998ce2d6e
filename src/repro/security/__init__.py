"""Simulated security substrate for PAST (§2.3 of the paper).

PAST's security rests on smartcards held by nodes and users: the cards
hold key pairs, generate and verify file/store/reclaim certificates, and
maintain storage quotas.  The simulator has no wire-level adversary, so
signatures are implemented with HMAC over a per-key secret — structurally
identical to public-key signatures from the protocol's point of view
(unforgeable without the key, verifiable by anyone holding the public
part) while staying cheap enough for million-file traces.
"""

from .keys import KeyPair
from .smartcard import Smartcard, SmartcardIssuer
from .identity import NodeIdentity
from .certificates import (
    FileCertificate,
    ReclaimCertificate,
    ReclaimReceipt,
    StoreReceipt,
    CertificateError,
)

__all__ = [
    "KeyPair",
    "Smartcard",
    "SmartcardIssuer",
    "NodeIdentity",
    "FileCertificate",
    "ReclaimCertificate",
    "ReclaimReceipt",
    "StoreReceipt",
    "CertificateError",
]
