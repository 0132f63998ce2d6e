"""Simulated public-key cryptography.

A :class:`KeyPair` mimics an asymmetric key pair: ``public`` is a byte
string safe to hand out (it seeds nodeId assignment and fileId hashing,
exactly as in the paper); ``sign`` produces a tag over a message that
``verify`` checks.  The tag is an HMAC keyed by the private secret, with
the verifier resolving the keyed state through a process-local key registry.
That registry stands in for the mathematics of signature verification: a
forger without the private secret cannot mint valid tags, and any party
can check one — the two properties PAST's certificate flow relies on.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, Tuple


#: Process-local registry mapping public keys to the signer's keyed pads.
#: This is the simulation stand-in for asymmetric verification; see module
#: docstring.
_KEY_REGISTRY: Dict[bytes, Tuple[bytes, bytes]] = {}

_BLOCK = hashlib.sha256().block_size
_INNER = bytes(b ^ 0x36 for b in range(256))
_OUTER = bytes(b ^ 0x5C for b in range(256))


def _tag(pads: Tuple[bytes, bytes], message: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104) from a key's two precomputed pad blocks.

    Byte for byte ``hmac.new(secret, message, sha256).digest()``, minus the
    key schedule: that ran once, when the pair was made.  The pads are
    immutable, so threads may sign and verify with one key at once.
    """
    inner = hashlib.sha256(pads[0] + message).digest()
    return hashlib.sha256(pads[1] + inner).digest()


class KeyPair:
    """A simulated private/public key pair."""

    __slots__ = ("public", "_pads")

    def __init__(self, owner_label: str, seed: bytes = b""):
        material = owner_label.encode("utf-8") + b"|" + seed
        block = hashlib.sha256(b"secret|" + material).digest().ljust(_BLOCK, b"\0")
        self.public = hashlib.sha256(b"public|" + material).digest()
        self._pads = (block.translate(_INNER), block.translate(_OUTER))
        _KEY_REGISTRY[self.public] = self._pads

    def sign(self, message: bytes) -> bytes:
        """Produce a signature tag over ``message``."""
        return _tag(self._pads, message)

    @staticmethod
    def verify(public: bytes, message: bytes, tag: bytes) -> bool:
        """Check a signature allegedly produced by the holder of ``public``."""
        pads = _KEY_REGISTRY.get(public)
        if pads is None:
            return False
        return hmac.compare_digest(_tag(pads, message), tag)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KeyPair(public={self.public.hex()[:12]}...)"
