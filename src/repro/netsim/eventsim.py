"""A small discrete-event simulator.

The synchronous emulation used for the §5 trace experiments treats
failure detection as instantaneous.  In a deployment, Pastry detects
failures through periodic keep-alive messages: "if a node is unresponsive
for a period T, it is presumed failed" (§2.1) — and PAST's availability
story explicitly hinges on that window ("a file can be located unless all
k nodes have failed simultaneously, i.e., within a recovery period").

This module provides the event queue that the recovery-period experiments
use to model time: schedule callbacks at absolute or relative times,
periodic timers for keep-alives, and deterministic FIFO ordering among
same-time events.
"""

from __future__ import annotations

import heapq
import itertools
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

from .trace import ScheduleTrace, callback_label


#: Files whose frames are skipped when attributing a schedule call to a
#: source location: the simulator itself plus any delegation layer that
#: registers here (the transport seam does), so trace diagnostics keep
#: pointing at the node logic that asked for the timer.
_INFRA_FILES = {__file__}


def _call_site() -> str:
    """``file.py:lineno`` of the nearest caller outside the infrastructure."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename in _INFRA_FILES:
        frame = frame.f_back
    if frame is None:
        return "?"
    filename = os.path.basename(frame.f_code.co_filename)
    return f"{filename}:{frame.f_lineno}"


@dataclass(frozen=True)
class EventHandle:
    """Returned by ``schedule``; lets the caller cancel the event."""

    __slots__ = ("time", "seq")

    time: float
    seq: int


@dataclass(frozen=True)
class PendingEvent:
    """One co-enabled event offered to a :class:`SchedulePolicy`."""

    __slots__ = ("time", "seq", "callback")

    time: float
    seq: int
    callback: Callable[[], None]

    @property
    def label(self) -> str:
        """Stable, address-free name of the callback (see trace module)."""
        return callback_label(self.callback)


class SchedulePolicy:
    """Chooses which of several co-enabled events runs next.

    The simulator's default tie-break is FIFO: among events with equal
    timestamps, lowest sequence number first.  A policy generalises
    that: at each step the simulator collects the *frontier* — every
    pending event whose time is within ``window`` of the earliest
    pending time — and asks the policy to pick one by index.  The
    frontier is sorted by ``(time, seq)``, so index 0 is always the
    FIFO choice and the base policy is behaviour-preserving.

    ``window > 0`` additionally allows *commuting* events whose
    timestamps differ by at most ``window``: the chosen event may run
    before an earlier-stamped one.  Virtual time never moves backwards;
    an event overtaken this way still reports its original timestamp.

    Policies must be deterministic functions of the frontier (plus any
    internal state seeded deterministically): the schedule explorer
    (``repro.devtools.explore``) relies on replaying a recorded decision
    sequence to reproduce a run exactly.
    """

    #: co-enablement window: events within this much of the earliest
    #: pending timestamp may be reordered ahead of it.
    window: float = 0.0

    def choose(self, frontier) -> int:
        """Return the index of the frontier event to run next."""
        return 0


class EventSimulator:
    """A priority-queue discrete-event loop with virtual time.

    Pass ``trace=ScheduleTrace()`` to record a digest trace of every
    executed event; see :mod:`repro.netsim.trace` and ``repro sanitize``.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        trace: Optional[ScheduleTrace] = None,
        policy: Optional[SchedulePolicy] = None,
    ):
        self.now = start_time
        self._heap = []  # (time, seq, callback)
        self._seq = itertools.count()
        self._cancelled = set()
        #: seqs currently in the heap; bounds _cancelled (see cancel()).
        self._pending = set()
        self.events_run = 0
        self.trace = trace
        #: ``None`` keeps the original FIFO pop path byte-for-byte.
        self.policy = policy

    # ------------------------------------------------------------ schedule

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute virtual time ``when``."""
        if when < self.now:
            raise ValueError("cannot schedule into the past")
        seq = next(self._seq)
        heapq.heappush(self._heap, (when, seq, callback))
        self._pending.add(seq)
        if self.trace is not None:
            self.trace.record_schedule(seq, _call_site())
        return EventHandle(when, seq)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event (no-op if it already ran).

        Only seqs still in the heap enter ``_cancelled``; cancelling an
        event that already ran, or cancelling twice, is a no-op, so the
        set can never outgrow the heap.
        """
        if handle.seq in self._pending:
            self._cancelled.add(handle.seq)

    def every(
        self,
        period: float,
        callback: Callable[[], None],
        jitter_fn: Optional[Callable[[], float]] = None,
        first_delay: Optional[float] = None,
    ) -> "PeriodicTimer":
        """Run ``callback`` every ``period`` units until stopped.

        ``first_delay`` overrides the delay before the *first* fire only
        (jitter still applies) — used to phase-spread a fleet of per-node
        timers instead of firing them all at the same instant.
        """
        timer = PeriodicTimer(self, period, callback, jitter_fn, first_delay)
        timer.start()
        return timer

    # ----------------------------------------------------------------- run

    def pending(self) -> int:
        return len(self._heap)

    def step(self, limit: Optional[float] = None) -> bool:
        """Run the next event; returns False when the queue is empty.

        ``limit`` caps the timestamps a :class:`SchedulePolicy` may pick
        from (used by :meth:`run_until` so a commutation window never
        reaches past the deadline).  It never *adds* events: the FIFO
        path ignores it because its choice is always the earliest event.
        """
        if self.policy is None:
            while self._heap:
                when, seq, callback = heapq.heappop(self._heap)
                self._pending.discard(seq)
                if seq in self._cancelled:
                    self._cancelled.discard(seq)
                    continue
                self.now = when
                if self.trace is not None:
                    self.trace.record_event(when, seq, callback)
                callback()
                self.events_run += 1
                return True
            return False

        frontier = self._pop_frontier(limit)
        if not frontier:
            return False
        index = 0
        if len(frontier) > 1:
            index = self.policy.choose(frontier)
            if not 0 <= index < len(frontier):
                raise IndexError(
                    f"policy chose {index} from a frontier of {len(frontier)}"
                )
        chosen = frontier[index]
        # Push the rest back *before* running the callback so the event
        # it executes sees a consistent queue (it may cancel them).
        for event in frontier:
            if event.seq != chosen.seq:
                heapq.heappush(self._heap, (event.time, event.seq, event.callback))
                self._pending.add(event.seq)
        if self.trace is not None and len(frontier) > 1:
            self.trace.record_decision(index, frontier)
        # Time is monotonic even when the policy runs a later-stamped
        # event ahead of an earlier one inside the window.
        self.now = max(self.now, chosen.time)
        if self.trace is not None:
            self.trace.record_event(chosen.time, chosen.seq, chosen.callback)
        chosen.callback()
        self.events_run += 1
        return True

    def _pop_frontier(self, limit: Optional[float]):
        """Pop every co-enabled event: earliest time plus policy window.

        Cancelled events encountered on the way are dropped for good,
        exactly as the FIFO path drops them.
        """
        frontier = []
        horizon = None
        while self._heap:
            when, seq, callback = self._heap[0]
            if horizon is None:
                if seq in self._cancelled:
                    heapq.heappop(self._heap)
                    self._pending.discard(seq)
                    self._cancelled.discard(seq)
                    continue
                horizon = when + self.policy.window
                if limit is not None:
                    horizon = min(horizon, limit)
            if when > horizon:
                break
            heapq.heappop(self._heap)
            self._pending.discard(seq)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            frontier.append(PendingEvent(when, seq, callback))
        return frontier

    def run_until(self, deadline: float) -> None:
        """Run every event scheduled at or before ``deadline``."""
        while self._heap and self._heap[0][0] <= deadline:
            self.step(limit=deadline)
        self.now = max(self.now, deadline)

    def run(self, max_events: int = 1_000_000) -> None:
        """Drain the queue (bounded to catch runaway timer loops)."""
        for _ in range(max_events):
            if not self.step():
                return
        raise RuntimeError(f"event loop exceeded {max_events} events")


class PeriodicTimer:
    """A repeating timer driven by an :class:`EventSimulator`."""

    __slots__ = (
        "sim", "period", "callback", "jitter_fn", "_first_delay",
        "_handle", "_running", "fires",
    )

    def __init__(
        self,
        sim: EventSimulator,
        period: float,
        callback: Callable[[], None],
        jitter_fn: Optional[Callable[[], float]] = None,
        first_delay: Optional[float] = None,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        if first_delay is not None and first_delay < 0:
            raise ValueError("first_delay must be non-negative")
        self.sim = sim
        self.period = period
        self.callback = callback
        self.jitter_fn = jitter_fn
        self._first_delay = first_delay
        self._handle: Optional[EventHandle] = None
        self._running = False
        self.fires = 0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._arm()

    def _arm(self) -> None:
        base = self.period
        if self._first_delay is not None:
            base = self._first_delay
            self._first_delay = None
        delay = base + (self.jitter_fn() if self.jitter_fn else 0.0)
        self._handle = self.sim.schedule(max(1e-12, delay), self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        self.fires += 1
        self.callback()
        if self._running:
            self._arm()

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self.sim.cancel(self._handle)
            self._handle = None
