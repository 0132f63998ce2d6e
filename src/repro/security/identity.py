"""Signed node identities: verifiable nodeId-to-address bindings (§2.3).

"All routing table entries (i.e. nodeId to IP address mappings) are
signed by the associated node and can be verified by other nodes.
Therefore, a malicious node may at worst suppress valid entries, but it
cannot forge entries."

A :class:`NodeIdentity` is the announcement a node distributes about
itself: its nodeId, its network address, its public key (certified by the
smartcard issuer) and a self-signature over the binding.  Verification
checks both the issuer certification of the key and the self-signature,
so no party can announce a binding for a nodeId whose key it does not
hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certificates import CertificateError, SignedRecord
from .keys import KeyPair
from .smartcard import Smartcard


@dataclass(frozen=True)
class NodeIdentity(SignedRecord):
    """A self-signed, issuer-certified (nodeId, address) binding."""

    node_id: int
    address: str
    public_key: bytes
    issuer_public: bytes
    issuer_signature: bytes = field(repr=False)
    signature: bytes = field(repr=False)

    _FORMAT = b"identity|%d|%s|%s"
    _fields = staticmethod(lambda r: (r.node_id, r.address.encode("utf-8"), r.public_key))

    @staticmethod
    def issue(card: Smartcard, node_id: int, address: str) -> "NodeIdentity":
        """Create the identity record a node announces about itself."""
        signed = (node_id, address.encode("utf-8"), card.public_key)
        return NodeIdentity(
            node_id=node_id,
            address=address,
            public_key=card.public_key,
            issuer_public=card.issuer_public,
            issuer_signature=card.issuer_signature,
            signature=card.keypair.sign(NodeIdentity._FORMAT % signed),
        )

    def verify(self) -> None:
        """Raise :class:`CertificateError` unless the binding is genuine.

        Checks (1) the issuer certified the public key (the smartcard
        chain) and (2) the key's holder signed this exact
        (nodeId, address) binding.
        """
        if not KeyPair.verify(self.issuer_public, self.public_key, self.issuer_signature):
            raise CertificateError("identity key not certified by issuer")
        if not self._signed_by(self.public_key):
            raise CertificateError("identity binding signature invalid")
