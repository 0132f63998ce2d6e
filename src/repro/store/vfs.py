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

Every barrier is a fault point:

* the (optional) :class:`~repro.netsim.faults.StorageFaultPlan`'s
  ``readonly`` disk mode refuses it (``OSError``), exactly as the
  modeled replica path refuses new replica bytes;
* the one kill armed on the Vfs (:meth:`Vfs.arm_kill`) fires at its
  barrier: ``before-fsync`` loses the whole pending buffer,
  ``torn-fsync`` lands a prefix of it whose length the plan draws (the
  torn tail record recovery must truncate), ``after-fsync`` completes
  the barrier first.  Then every file the Vfs holds open is closed and
  :class:`SimulatedCrash` is raised: the backend is dead, and the
  directory is recovered by a fresh one.

Barriers are counted per-Vfs (``vfs.barriers``), so a kill names a
reproducible instant in the node's I/O stream.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from ..netsim.faults import (
    CRASH_AFTER_FSYNC,
    CRASH_BEFORE_FSYNC,
    CRASH_PHASES,
    CRASH_TORN_FSYNC,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.faults import StorageFaultPlan

__all__ = ["AppendFile", "SimulatedCrash", "Vfs"]


class SimulatedCrash(RuntimeError):
    """The process died at the kill armed on its Vfs.

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
    real ``os.fsync``.  ``abandon()`` drops everything pending.
    """

    def __init__(self, vfs: "Vfs", path: Path, truncate: bool = False):
        self._vfs = vfs
        self.path = Path(path)
        self._fh = open(self.path, "wb" if truncate else "ab")
        self._pending = bytearray()
        self.closed = False
        vfs._open.append(self)

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

        A readonly disk refuses it, and an armed kill fires here (see
        the module docstring for the per-phase semantics).
        """
        self._vfs._barrier(self)

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
        self._vfs._open.remove(self)

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
    (``fault_plan``, :meth:`arm_kill`).  With no plan and no kill, a
    barrier only commits.
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
        #: The armed kill, ``(barrier, phase)``, or None.
        self.kill: Optional[Tuple[int, str]] = None
        #: Files open on this stream; a kill closes every one.
        self._open: List[AppendFile] = []

    def arm_kill(self, barrier: int, phase: str = CRASH_BEFORE_FSYNC) -> None:
        """Kill the process at this stream's ``barrier``-th barrier.

        Replaces any kill already armed.  A ``torn-fsync`` kill draws
        the landed length from the fault plan, so it needs one.
        """
        if phase not in CRASH_PHASES:
            raise ValueError(f"unknown crash phase {phase!r}")
        if barrier < self.barriers:
            raise ValueError(f"barrier {barrier} has already passed")
        if phase == CRASH_TORN_FSYNC and self.fault_plan is None:
            raise ValueError("a torn kill needs a StorageFaultPlan")
        self.kill = (barrier, phase)

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

        A kill here models dying mid-compaction: ``before-fsync`` and
        ``torn-fsync`` die before the rename (renames cannot tear),
        ``after-fsync`` dies with the new file already in place.
        """
        src, dst = Path(src), Path(dst)
        phase = self._count_barrier()
        if phase is not None and phase != CRASH_AFTER_FSYNC:
            self._die(phase)
        os.replace(src, dst)
        self._fsync_dir(dst.parent)
        if phase is not None:
            self._die(phase)

    # ----------------------------------------------------------- internals

    def _barrier(self, file: AppendFile) -> None:
        phase = self._count_barrier()
        landed = len(file._pending)
        if phase == CRASH_BEFORE_FSYNC:
            landed = 0  # nothing pending reaches the platter
        elif phase == CRASH_TORN_FSYNC:
            landed = self.fault_plan.torn_length(landed)
        file._commit(landed)
        file._pending.clear()
        if phase is not None:
            self._die(phase)

    def _count_barrier(self) -> Optional[str]:
        """Count one barrier; the armed kill's phase if it fires here.

        A readonly disk refuses the barrier before it is counted.
        """
        plan = self.fault_plan
        if plan is not None and not plan.writable(self.node_id):
            plan.refuse_write(self.node_id)
            raise OSError(
                f"disk is {plan.disk_mode(self.node_id)}; refusing durable write"
            )
        barrier = self.barriers
        self.barriers += 1
        kill = self.kill
        if kill is None or kill[0] != barrier:
            return None
        return kill[1]

    def _die(self, phase: str) -> None:
        """The process is gone: every open file closes, nothing more lands."""
        for file in list(self._open):
            file.abandon()
        raise SimulatedCrash(self.node_id, self.kill[0], phase)

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
