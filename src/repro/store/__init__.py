"""The durable replica-store backend behind ``LocalStore``.

The modeled engine keeps replica state in plain dicts; this package lets
that state also live somewhere durable.  A *backend* observes every
logical mutation of a :class:`~repro.core.storage.LocalStore` through
duck-typed ``note_*`` hooks.  No backend (the default) keeps state in
the dicts alone; :class:`~repro.store.wal.WalBackend` journals each
mutation to a checksummed write-ahead log with snapshot compaction, and
recovers the pre-crash committed state from the directory on reopen.

The hooks carry *logical* state only — certificates, file ids, flags.
Soft state (referrers, the verified-read cache, timestamps) is
deliberately not journaled: the keep-alive and reconciliation machinery
rebuilds it when a recovered node rejoins, exactly as the paper's
replica-maintenance protocol assumes.
"""

from .recovery import (
    OP_DROP,
    OP_DROP_POINTER,
    OP_POINTER,
    OP_PRIMARY_FLAG,
    OP_STORE,
    OP_WIPE,
    OPS,
    RecoveryInfo,
    StoreState,
    recover_state,
)
from .snapshot import SNAPSHOT_FILE, load_snapshot, write_snapshot
from .vfs import AppendFile, SimulatedCrash, Vfs
from .wal import WAL_FILE, WalBackend, frame_record, scan_frames

__all__ = [
    "AppendFile",
    "OPS",
    "OP_DROP",
    "OP_DROP_POINTER",
    "OP_POINTER",
    "OP_PRIMARY_FLAG",
    "OP_STORE",
    "OP_WIPE",
    "RecoveryInfo",
    "SNAPSHOT_FILE",
    "SimulatedCrash",
    "StoreState",
    "Vfs",
    "WAL_FILE",
    "WalBackend",
    "frame_record",
    "load_snapshot",
    "recover_state",
    "scan_frames",
    "write_snapshot",
]

