"""Request messages routed through the Pastry overlay by PAST.

Requests are envelopes: routing carries one from hop to hop, the
intercepting node records its response in it, and it comes back to the
sender in ``RouteResult.message`` — the object the sender passed in is
not the reply.  The network layer then translates the returned envelope
into a client-facing result object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..security import FileCertificate, ReclaimCertificate, ReclaimReceipt, StoreReceipt


@dataclass
class InsertRequest:
    """Carries a file (certificate + simulated content) towards its fileId."""

    certificate: FileCertificate
    client_id: int
    #: Actual file bytes, when the client materializes them (small demo
    #: files, erasure-coded shards); None for size-only simulation.
    content: Optional[bytes] = None
    #: Filled by the coordinating node (first of the k closest reached).
    coordinator_id: Optional[int] = None
    receipts: List[StoreReceipt] = field(default_factory=list)
    accepted: bool = False
    failure_reason: Optional[str] = None
    replica_diversions: int = 0


@dataclass
class LookupRequest:
    """Travels towards the fileId until any node can satisfy it."""

    file_id: int
    client_id: int
    #: Where the content was found: "primary", "diverted", "pointer", "cache".
    source: Optional[str] = None
    responder_id: Optional[int] = None
    certificate: Optional[FileCertificate] = None
    #: Extra (non-routing) hops spent chasing a diversion pointer.
    extra_hops: int = 0
    #: Local copies that failed their verified read (corrupt or disk
    #: error) while this request searched for a servable replica.
    integrity_failures: int = 0


@dataclass
class ReclaimRequest:
    """Carries a reclaim certificate towards the fileId's replica set."""

    certificate: ReclaimCertificate
    client_id: int
    coordinator_id: Optional[int] = None
    receipts: List[ReclaimReceipt] = field(default_factory=list)
    failure_reason: Optional[str] = None
