"""PAST's core: storage management (§3) and caching (§4).

This package is the paper's primary contribution: the replica/file
diversion machinery that lets the system run gracefully past 95% global
storage utilization, and the GreedyDual-Size caching layer that minimizes
fetch distance and balances query load.
"""

from .config import NO_DIVERSION_CONFIG, PAPER_CONFIG, PastConfig
from .cache import CacheManager, GreedyDualSizePolicy, LRUPolicy
from .errors import (
    AdmissionError,
    CapacityError,
    InsertFailedError,
    PastError,
)
from .integrity import AntiEntropyScrubber, IntegrityStats
from .invariants import AuditReport, audit
from .resilience import RetryPolicy
from .seeding import derive_seed
from .network import InsertResult, LookupResult, PastNetwork, ReclaimResult
from .node import PastNode
from .stats import InsertEvent, LookupEvent, PastStats
from .storage import DiversionPointer, LocalStore, StoredReplica

__all__ = [
    "PastConfig",
    "PAPER_CONFIG",
    "NO_DIVERSION_CONFIG",
    "CacheManager",
    "GreedyDualSizePolicy",
    "LRUPolicy",
    "PastError",
    "AdmissionError",
    "CapacityError",
    "InsertFailedError",
    "AntiEntropyScrubber",
    "IntegrityStats",
    "audit",
    "AuditReport",
    "RetryPolicy",
    "derive_seed",
    "PastNetwork",
    "PastNode",
    "InsertResult",
    "LookupResult",
    "ReclaimResult",
    "PastStats",
    "InsertEvent",
    "LookupEvent",
    "LocalStore",
    "StoredReplica",
    "DiversionPointer",
]
