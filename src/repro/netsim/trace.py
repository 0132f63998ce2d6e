"""Schedule-trace instrumentation for the event simulator.

When an :class:`~repro.netsim.eventsim.EventSimulator` is constructed
with ``trace=ScheduleTrace()`` it records, for every event that runs, a
``(time, seq, callback qualname)`` triple plus the source location that
*scheduled* it.  Two digests summarise a run:

* ``digest()`` — one hex digest over the whole event sequence; equal
  digests mean equal trajectories.
* ``digests`` — the *cumulative* digest after each event.  Because each
  entry extends the previous one, the first index where two runs'
  cumulative digests differ is exactly the first divergent event; the
  sanitizer harness (:mod:`repro.devtools.sanitize`) binary-searches
  this list to localise a nondeterminism bug to a single event and its
  scheduling call site.

The digest covers ``(time, seq, label)`` only — *not* the scheduling
site — so cosmetic refactors of the scheduling code do not change the
digest, while any reordering of the executed events does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class TraceEvent:
    """One executed event, in execution order."""

    __slots__ = ("index", "time", "seq", "callback", "site")

    index: int
    time: float
    seq: int
    callback: str
    #: ``file.py:lineno`` of the schedule_at() caller, "?" if unknown.
    site: str

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "time": self.time,
            "seq": self.seq,
            "callback": self.callback,
            "site": self.site,
        }


@dataclass(frozen=True)
class Decision:
    """One schedule-policy choice among co-enabled events.

    Recorded whenever a :class:`~repro.netsim.eventsim.SchedulePolicy`
    faced a frontier of two or more events.  ``index`` is the position
    in :attr:`ScheduleTrace.events` the chosen event then occupied, so
    decisions can be correlated with the executed sequence; ``chosen``
    is the frontier index picked; ``options`` names every candidate as
    ``(time, seq, label)`` tuples in frontier order.  A run is replayed
    exactly by feeding the ``chosen`` values back in order (the
    explorer's decision-string format, see ``repro.devtools.explore``).
    """

    __slots__ = ("index", "chosen", "options")

    index: int
    chosen: int
    options: tuple

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "chosen": self.chosen,
            "options": [list(o) for o in self.options],
        }


def callback_label(callback) -> str:
    """A stable, address-free name for a scheduled callable."""
    label = getattr(callback, "__qualname__", None)
    if label is None:
        label = type(callback).__name__
    return label


class ScheduleTrace:
    """Digest trace of every event an instrumented simulator runs."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        #: cumulative hex digest after each event (same length as events).
        self.digests: List[str] = []
        #: policy choices among co-enabled events, in decision order.
        self.decisions: List[Decision] = []
        self._hash = hashlib.sha256()
        #: seq -> scheduling call site, recorded at schedule time.
        self._sites: Dict[int, str] = {}

    # ----------------------------------------------------------- recording

    def record_schedule(self, seq: int, site: str) -> None:
        self._sites[seq] = site

    def record_decision(self, chosen: int, frontier) -> None:
        """Record a policy choice.  ``frontier`` holds the candidates.

        The decision is *not* folded into the digest: its effect is
        already visible as the ordering of the executed events, and the
        digest must stay comparable between a policy-driven run and a
        plain FIFO run that happened to execute the same sequence.
        """
        options = tuple((e.time, e.seq, e.label) for e in frontier)
        self.decisions.append(
            Decision(index=len(self.events), chosen=chosen, options=options)
        )

    def record_event(self, time: float, seq: int, callback) -> None:
        label = callback_label(callback)
        site = self._sites.pop(seq, "?")
        event = TraceEvent(
            index=len(self.events), time=time, seq=seq,
            callback=label, site=site,
        )
        self.events.append(event)
        self._hash.update(f"{time!r}|{seq}|{label}\n".encode())
        self.digests.append(self._hash.hexdigest())

    # ------------------------------------------------------------- queries

    def digest(self) -> str:
        """Digest of the whole run so far (digest of zero events is stable)."""
        return self.digests[-1] if self.digests else self._hash.hexdigest()

    def to_dict(self) -> dict:
        return {
            "digest": self.digest(),
            "digests": list(self.digests),
            "events": [e.to_dict() for e in self.events],
            "decisions": [d.to_dict() for d in self.decisions],
        }
