"""The write-ahead log: checksummed, length-prefixed WireCodec records.

On-disk record format (all integers big-endian, matching the PR-8 wire
framing discipline)::

    +----------------+----------------+=========================+
    | payload length | crc32(payload) | payload (WireCodec)     |
    |   4 bytes      |    4 bytes     |   `length` bytes        |
    +----------------+----------------+=========================+

The payload is one ``WireCodec``-encoded record ``[seq, op, *args]``
(see :mod:`repro.store.recovery` for the op table).  The codec already
guarantees hash-seed-independent bytes (sorted sets/dicts, schema-pinned
message fields), so the same logical history always produces the same
log bytes — the golden-bytes test pins one record of each op.

:class:`WalBackend` is the durable store behind ``LocalStore``: every
logical mutation appends one record, an fsync barrier every
``sync_every`` records is the commit point (1 = per-record, the safe
default; the chaos sweep widens it to open a crash window), and after
``snapshot_every`` records a compaction folds the log into a snapshot.
All I/O goes through the :class:`~repro.store.vfs.Vfs` shim, so fault
plans and the armed kill inject into the real file path.
"""

from __future__ import annotations

import struct
import zlib
from contextlib import suppress
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..net.codec import WireCodec
from ..netsim.faults import CRASH_BEFORE_FSYNC
from .recovery import (
    OP_DROP,
    OP_DROP_POINTER,
    OP_POINTER,
    OP_PRIMARY_FLAG,
    OP_STORE,
    OP_WIPE,
    RecoveryInfo,
    StoreState,
    recover_state,
)
from .vfs import SimulatedCrash, Vfs

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.faults import StorageFaultPlan
    from ..security import FileCertificate

__all__ = ["WAL_FILE", "WalBackend", "frame_record", "scan_frames"]

#: File names inside a backend directory.  The snapshot's name lives in
#: :mod:`repro.store.snapshot`.
WAL_FILE = "wal.log"

#: Record header: payload length + crc32 of the payload.
_HEADER = struct.Struct(">II")


def frame_record(payload: bytes) -> bytes:
    """Wrap one encoded payload in the length+checksum header."""
    return _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def scan_frames(blob: bytes) -> Tuple[List[Tuple[int, bytes]], int]:
    """Walk a log image; stop at the first torn or corrupt record.

    Returns ``(frames, clean_length)`` where ``frames`` is the list of
    ``(offset, payload)`` pairs that verified, and ``clean_length`` is
    the byte offset of the first record that did not — a truncated
    header, a payload shorter than its length prefix, or a checksum
    mismatch all end the scan there.
    """
    frames: List[Tuple[int, bytes]] = []
    offset = 0
    total = len(blob)
    while offset < total:
        if offset + _HEADER.size > total:
            break  # torn header
        length, crc = _HEADER.unpack_from(blob, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            break  # torn payload
        payload = blob[start:end]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            break  # corrupt record
        frames.append((offset, payload))
        offset = end
    return frames, offset


class WalBackend:
    """Durable replica-store backend: append-only WAL + snapshots.

    Opening a backend *is* recovery: the constructor rebuilds
    :attr:`state` from the directory (snapshot + replay, torn tail
    truncated) before accepting new records, so a restarted node picks
    up exactly its pre-crash committed state.

    A barrier only fsyncs: no state is hashed on the write path.
    ``track_digests=True`` keeps the state digest after every applied
    record — the crash-restart sweep's oracle checks the recovered
    digest against this history (it must land between
    :attr:`synced_seq` and the last append, never outside).
    """

    durable = True

    def __init__(
        self,
        directory: Union[str, Path],
        node_id: int = -1,
        fault_plan: Optional["StorageFaultPlan"] = None,
        codec: Optional[WireCodec] = None,
        snapshot_every: int = 256,
        sync_every: int = 1,
        track_digests: bool = False,
    ):
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be positive")
        if sync_every < 1:
            raise ValueError("sync_every must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.node_id = node_id
        self.vfs = Vfs(node_id=node_id, fault_plan=fault_plan)
        self.codec = codec if codec is not None else WireCodec()
        self.snapshot_every = snapshot_every
        self.sync_every = sync_every
        self.state, self.recovery = recover_state(
            self.vfs, self.directory, self.codec
        )
        self._wal = self.vfs.open_append(self.directory / WAL_FILE)
        self._since_snapshot = self.recovery.records_replayed
        self._unsynced = 0
        #: Seq of the last record an fsync barrier covered — the
        #: recovery lower bound.
        self.synced_seq = self.state.seq
        self.track_digests = track_digests
        #: seq -> state digest after that record applied (history
        #: window the recovery oracle checks against).
        self.digest_history: Dict[int, str] = {}
        if track_digests:
            self.digest_history[self.state.seq] = self.state.state_digest(self.codec)

    @property
    def closed(self) -> bool:
        """Closed, or killed: a kill closes the journal file with it."""
        return self._wal.closed

    # --------------------------------------------------------- journal hooks

    def note_store(self, certificate: "FileCertificate", diverted: bool) -> None:
        self._append([OP_STORE, certificate, bool(diverted)])

    def note_drop(self, file_id: int) -> None:
        self._append([OP_DROP, file_id])

    def note_pointer(
        self, certificate: "FileCertificate", target_id: int, primary: bool
    ) -> None:
        self._append([OP_POINTER, certificate, target_id, bool(primary)])

    def note_drop_pointer(self, file_id: int) -> None:
        self._append([OP_DROP_POINTER, file_id])

    def note_primary_flag(self, file_id: int, primary: bool) -> None:
        self._append([OP_PRIMARY_FLAG, file_id, bool(primary)])

    def note_wipe(self) -> None:
        """The media was destroyed: logical state and history both go."""
        self._wal.abandon()
        self.vfs.remove(self.directory / WAL_FILE)
        from .snapshot import SNAPSHOT_FILE

        self.vfs.remove(self.directory / SNAPSHOT_FILE)
        self.state = StoreState()
        self.recovery = RecoveryInfo()
        self._wal = self.vfs.open_append(self.directory / WAL_FILE)
        self._since_snapshot = 0
        self._unsynced = 0
        self.synced_seq = 0
        if self.track_digests:
            self.digest_history = {0: self.state.state_digest(self.codec)}

    # ------------------------------------------------------------ lifecycle

    def flush(self) -> None:
        """One fsync barrier: everything appended so far becomes durable."""
        if self.closed:
            return
        self._wal.fsync()
        self._unsynced = 0
        self.synced_seq = self.state.seq

    def compact(self) -> None:
        """Fold the log into a snapshot; the WAL restarts empty.

        Barrier order is the crash-consistency argument: (1) the
        snapshot temp file is written and fsynced, (2) the atomic
        rename publishes it, (3) the WAL is truncated.  A crash after
        (2) but before (3) leaves pre-compaction records in the log;
        replay skips them by seq (see :func:`recover_state`).
        """
        from .snapshot import write_snapshot

        self.flush()
        write_snapshot(self.vfs, self.directory, self.state, self.codec)
        self._wal.close()
        self._wal = self.vfs.open_append(self.directory / WAL_FILE, truncate=True)
        self._wal.fsync()
        self._since_snapshot = 0
        self._unsynced = 0

    def crash(self, phase: str = CRASH_BEFORE_FSYNC) -> None:
        """Simulate kill -9 between operations (harness surface).

        Arms the Vfs kill at the next barrier and flushes into it:
        ``before-fsync`` drops the whole unsynced tail, ``torn-fsync``
        lands a seeded strict prefix of it, ``after-fsync`` lands
        everything.  Either way the backend is dead afterwards: reopen
        the directory with a fresh :class:`WalBackend`.
        """
        self.vfs.arm_kill(self.vfs.barriers, phase)
        with suppress(SimulatedCrash):
            self.flush()

    def close(self) -> None:
        if not self.closed:
            self.flush()
            self._wal.close()

    # ------------------------------------------------------------ internals

    def _append(self, op_args: List) -> None:
        if self.closed:
            raise ValueError("append to a closed WalBackend")
        record = [self.state.seq + 1] + op_args
        self.state.apply(record)
        if self.track_digests:
            self.digest_history[self.state.seq] = self.state.state_digest(self.codec)
        self._wal.write(frame_record(self.codec.encode(record)))
        self._unsynced += 1
        if self._unsynced >= self.sync_every:
            self.flush()
        if self._since_snapshot + 1 >= self.snapshot_every:
            self.compact()
        else:
            self._since_snapshot += 1
