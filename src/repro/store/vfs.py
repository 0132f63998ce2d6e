"""The VFS shim under every durable backend: buffered writes, explicit
fsync barriers, and the injection point for real-file-path faults.

Durability reasoning lives or dies on one distinction the plain ``open``
API hides: bytes handed to ``write()`` sit in the page cache and die
with the process, while bytes a completed ``fsync()`` barrier covered
survive a kill -9.  :class:`Vfs` makes that distinction executable — an
:class:`AppendFile` buffers writes *in the shim* and only moves them
into the OS file (and through ``os.fsync``) when the caller reaches a
barrier.  A simulated crash between write and barrier therefore loses
exactly the bytes a real crash would, on a real filesystem, without
needing actual power loss.

Fault injection: every barrier consults the (optional)
:class:`~repro.netsim.faults.StorageFaultPlan`:

* the ``readonly`` disk mode refuses the flush (``OSError``),
  exactly as the modeled replica path refuses new replica bytes;
* a scheduled :class:`~repro.netsim.faults.CrashPoint` kills the
  process at this barrier: ``before-fsync`` loses the whole pending
  buffer, ``torn-fsync`` lands a seeded strict prefix (the torn tail
  record recovery must truncate), ``after-fsync`` completes the barrier
  first.  The kill is delivered as :class:`SimulatedCrash`; the harness
  treats the raising backend as dead and recovers from the directory.

Barriers are counted per-Vfs (``vfs.barriers``), so a kill point names
a reproducible instant in the node's I/O stream.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from ..netsim.faults import (
    CRASH_AFTER_FSYNC,
    CRASH_BEFORE_FSYNC,
    CRASH_TORN_FSYNC,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.faults import StorageFaultPlan

__all__ = ["AppendFile", "SimulatedCrash", "Vfs"]


class SimulatedCrash(RuntimeError):
    """The process died at an injected kill point.

    Raised by the VFS *after* it has put the on-disk bytes into the
    exact state a kill -9 at that instant would leave: the raising
    backend must be abandoned and the directory recovered fresh.
    """

    def __init__(self, node_id: int, barrier: int, phase: str):
        super().__init__(
            f"node {node_id:#x} killed at fsync barrier {barrier} ({phase})"
        )
        self.node_id = node_id
        self.barrier = barrier
        self.phase = phase


class AppendFile:
    """One append-only file with shim-buffered writes.

    ``write()`` only grows the in-shim buffer; ``fsync()`` is the
    commit point that moves the buffer into the OS file and through a
    real ``os.fsync``.  ``tear(keep)`` and ``abandon()`` are the crash
    surface: commit a strict prefix, or drop everything pending.
    """

    def __init__(self, vfs: "Vfs", path: Path, truncate: bool = False):
        self._vfs = vfs
        self.path = Path(path)
        self._fh = open(self.path, "wb" if truncate else "ab")
        self._pending = bytearray()
        self.closed = False

    @property
    def pending(self) -> int:
        """Bytes written but not yet covered by a barrier."""
        return len(self._pending)

    def write(self, data: bytes) -> None:
        if self.closed:
            raise ValueError("write to a closed AppendFile")
        self._pending += data
        self._vfs.writes += 1

    def fsync(self) -> None:
        """One barrier: commit the pending buffer durably.

        Consults the fault plan first — disk modes may refuse, and a
        scheduled kill point fires here (see module docstring for the
        per-phase semantics).
        """
        self._vfs._barrier(self)

    def tear(self, keep: int) -> None:
        """Commit only the first ``keep`` pending bytes; drop the rest.

        Crash surface, not an API for normal operation: models the
        device losing power mid-flush.  Does not count as a barrier.
        """
        keep = max(0, min(keep, len(self._pending)))
        self._commit(keep)
        self._pending.clear()

    def abandon(self) -> None:
        """Drop everything pending and close, committing nothing."""
        self._pending.clear()
        self.close(flush=False)

    def close(self, flush: bool = True) -> None:
        if self.closed:
            return
        if flush and self._pending:
            self.fsync()
        self.closed = True
        self._fh.close()

    # ----------------------------------------------------------- internals

    def _commit(self, length: int) -> None:
        """Move ``length`` buffered bytes into the OS file + os.fsync."""
        if length:
            self._fh.write(bytes(self._pending[:length]))
        self._fh.flush()
        os.fsync(self._fh.fileno())


class Vfs:
    """Filesystem access for one node's durable store.

    All I/O a backend performs goes through here, so every barrier in
    the node's stream is observable (``barriers``) and injectable
    (``fault_plan``).  With no plan installed every hook is a single
    attribute check — the same zero-cost bar the modeled path holds.
    """

    def __init__(
        self,
        node_id: int = -1,
        fault_plan: Optional["StorageFaultPlan"] = None,
    ):
        self.node_id = node_id
        self.fault_plan = fault_plan
        #: Completed-or-attempted fsync barriers, 0-indexed: barrier i
        #: is the (i+1)-th fsync this node's durable I/O reaches.
        self.barriers = 0
        self.writes = 0

    # ------------------------------------------------------------ file API

    def open_append(self, path: Union[str, Path], truncate: bool = False) -> AppendFile:
        return AppendFile(self, Path(path), truncate=truncate)

    def read_bytes(self, path: Union[str, Path]) -> bytes:
        return Path(path).read_bytes()

    def exists(self, path: Union[str, Path]) -> bool:
        return Path(path).exists()

    def remove(self, path: Union[str, Path]) -> None:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def truncate(self, path: Union[str, Path], length: int) -> None:
        """Cut a file at ``length`` bytes (recovery chops torn tails)."""
        with open(path, "rb+") as fh:
            fh.truncate(length)
            fh.flush()
            os.fsync(fh.fileno())

    def replace(self, src: Union[str, Path], dst: Union[str, Path]) -> None:
        """Atomic rename + directory fsync; counts as one barrier.

        A kill point here models dying mid-compaction: ``before-fsync``
        and ``torn-fsync`` die before the rename (renames cannot tear),
        ``after-fsync`` dies with the new file already in place.
        """
        src, dst = Path(src), Path(dst)
        plan = self.fault_plan
        point = None
        if plan is not None:
            self._check_writable(plan)
            point = plan.crash_point_due(self.node_id, self.barriers)
        self.barriers += 1
        if point is not None and point.phase != CRASH_AFTER_FSYNC:
            raise SimulatedCrash(self.node_id, point.barrier, point.phase)
        os.replace(src, dst)
        self._fsync_dir(dst.parent)
        if point is not None:
            raise SimulatedCrash(self.node_id, point.barrier, point.phase)

    # ----------------------------------------------------------- internals

    def _barrier(self, file: AppendFile) -> None:
        plan = self.fault_plan
        point = None
        if plan is not None:
            self._check_writable(plan)
            point = plan.crash_point_due(self.node_id, self.barriers)
        self.barriers += 1
        if point is None:
            file._commit(len(file._pending))
            file._pending.clear()
            return
        if point.phase == CRASH_BEFORE_FSYNC:
            pass  # nothing pending reaches the platter
        elif point.phase == CRASH_TORN_FSYNC:
            file._commit(plan.torn_length(len(file._pending)))
        else:  # CRASH_AFTER_FSYNC
            file._commit(len(file._pending))
        file._pending.clear()
        raise SimulatedCrash(self.node_id, point.barrier, point.phase)

    def _check_writable(self, plan: "StorageFaultPlan") -> None:
        if not plan.writable(self.node_id):
            plan.refuse_write(self.node_id)
            raise OSError(
                f"disk is {plan.disk_mode(self.node_id)}; refusing durable write"
            )

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fs without dir fsync
            pass
        finally:
            os.close(fd)
