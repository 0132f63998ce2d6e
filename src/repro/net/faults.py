"""Seeded socket-level fault injection for the real-TCP transport.

The simulator's :class:`~repro.netsim.faults.FaultPlan` never touches a
socket, so until now the production-shaped plane had never survived a
dropped packet.  :class:`WireFaultPlan` mirrors the sim fault model at
the TCP layer: uniform loss, added delay, duplication and partitions
with heal — plus the failure mode only real sockets have (connection
resets mid-frame) and a seeded node-process kill/restart schedule the
live chaos harness applies.

Parity by construction: a wire plan does not reimplement the sim's
verdict logic — it *embeds* a :class:`FaultPlan` built from the same
:class:`~repro.netsim.faults.FaultSpec` and delegates every
loss/partition/delay/duplicate decision to it.  Wire-only draws (resets)
come from a second, independently-derived RNG, so they never perturb the
shared verdict stream.  :func:`decision_parity` checks the consequence:
the same spec driven through both engines yields the same
loss/partition verdict sequence, which the live chaos report asserts.

Determinism mirrors the sim plane: every probabilistic decision comes
from a seeded RNG consumed in call order, a plan that injects nothing
draws nothing, and an absent plan (``None`` on the transport) costs the
RPC hot path a single attribute check.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.seeding import derive_seed
from ..netsim.faults import CrashEvent, FaultPlan, FaultSpec

__all__ = [
    "InjectedLoss",
    "InjectedReset",
    "WireFaultPlan",
    "WireStats",
    "WireVerdict",
    "decision_parity",
    "parity_script",
    "verdict_sequence",
]


class InjectedLoss(asyncio.TimeoutError):
    """An injected drop: to the caller it looks like a lost message.

    Subclasses :class:`asyncio.TimeoutError` so every existing retry
    path (``send``/``probe`` returning undelivered, routes reported
    lost) treats an injected drop exactly like a real timeout — but the
    transport classifies it separately so real timeouts stay visible.
    """


class InjectedReset(ConnectionResetError):
    """An injected mid-frame connection reset (the socket was torn)."""


@dataclass
class WireStats:
    """Observed failure counters for one :class:`AsyncioTransport`.

    These count what the transport *experienced* (classified causes the
    old blanket ``except`` swallowed); the injected-fault counters live
    on the :class:`WireFaultPlan` that caused them.
    """

    #: RPCs whose reply never arrived inside the deadline.
    timeouts: int = 0
    #: Connections torn mid-call (peer closed with the frame half-read).
    resets: int = 0
    #: Connections refused outright (no server behind the port).
    refused: int = 0
    #: Successful re-dials after a refused/failed checkout.
    reconnects: int = 0
    #: Sends rejected by per-peer backpressure (over the high-water mark).
    rejected: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Counter dict for JSON records (insertion order is fixed)."""
        return {
            "timeouts": self.timeouts,
            "resets": self.resets,
            "refused": self.refused,
            "reconnects": self.reconnects,
            "rejected": self.rejected,
        }


class WireVerdict:
    """The wire plan's decision for one RPC leg.

    Plain ``__slots__`` class — one verdict per injected RPC leg, the
    hottest allocation site when a plan is installed.
    """

    __slots__ = ("lost", "partition", "delay", "duplicate", "reset")

    def __init__(
        self,
        lost: bool = False,
        partition: bool = False,
        delay: float = 0.0,
        duplicate: bool = False,
        reset: bool = False,
    ) -> None:
        self.lost = lost
        #: The loss was a partition cut, not a probabilistic drop.
        self.partition = partition
        self.delay = delay
        self.duplicate = duplicate
        #: Tear the connection mid-frame instead of delivering.
        self.reset = reset

    @property
    def kind(self) -> str:
        """The parity-relevant verdict class (resets are wire-only)."""
        if self.partition:
            return "partition"
        if self.lost:
            return "lost"
        return "ok"

    def __repr__(self) -> str:
        flags = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"WireVerdict({flags})"


class WireFaultPlan:
    """A seeded schedule of socket-level adversity for real TCP links.

    Parameters
    ----------
    spec:
        The shared :class:`FaultSpec`.  Loss, delay, duplication,
        partitions and the kill/restart schedule all come from here,
        decided by an embedded :class:`FaultPlan` built via
        :meth:`FaultPlan.from_spec` — the sim and wire engines share one
        verdict core.
    reset:
        Wire-only probability that a surviving leg is torn mid-frame
        (the client writes a partial length prefix and drops the
        connection).  Drawn from a *separate* RNG derived from the spec
        seed, so enabling resets does not shift the shared stream.
    """

    def __init__(self, spec: FaultSpec, reset: float = 0.0) -> None:
        if not 0.0 <= reset <= 1.0:
            raise ValueError(f"reset must be a probability, got {reset}")
        self.spec = spec
        self.link = FaultPlan.from_spec(spec)
        self.reset = reset
        #: Wire-only draws never share the link RNG (parity invariant).
        self.wire_rng = random.Random(derive_seed(spec.seed, "wire-faults"))
        self.resets_injected = 0
        self._fired: set = set()

    # ------------------------------------------------------------ clock/kills

    def bind_clock(self, now_fn: Callable[[], float]) -> "WireFaultPlan":
        """Attach the clock partitions and the kill schedule read.

        The live harness binds a *logical* clock (its round counter), so
        partition activation and kills are deterministic functions of
        workload progress, never of wall time.
        """
        self.link.bind_clock(now_fn)
        return self

    @property
    def stats(self):
        """The shared link-verdict counters (FaultStats)."""
        return self.link.stats

    def due_crashes(self, now: float) -> List[CrashEvent]:
        """Kill events scheduled at or before ``now``, each once."""
        due = []
        for i, event in enumerate(self.link.crashes):
            if event.time <= now and ("crash", i) not in self._fired:
                self._fired.add(("crash", i))
                due.append(event)
        return due

    def due_restarts(self, now: float) -> List[CrashEvent]:
        """Restart events scheduled at or before ``now``, each once."""
        due = []
        for i, event in enumerate(self.link.crashes):
            if (event.restart_at is not None and event.restart_at <= now
                    and ("restart", i) not in self._fired):
                self._fired.add(("restart", i))
                due.append(event)
        return due

    # -------------------------------------------------------------- decisions

    def decide(self, src: int, dst: int) -> WireVerdict:
        """The plan's verdict for one RPC leg ``src -> dst``.

        Loss/partition/delay/duplicate delegate to the embedded sim
        core (same RNG stream, same draw order); the reset draw comes
        after, from the wire-only RNG, and only for legs that survived.
        """
        partition = self.link.severed(src, dst)
        verdict = self.link.transmit(src, dst)
        if verdict.lost:
            return WireVerdict(lost=True, partition=partition)
        reset = False
        if self.reset > 0.0 and self.wire_rng.random() < self.reset:
            reset = True
            self.resets_injected += 1
        return WireVerdict(
            delay=verdict.delay, duplicate=verdict.duplicate, reset=reset
        )

    def injected_snapshot(self) -> Dict[str, int]:
        """Deterministic injected-fault counters for JSON records."""
        stats = self.link.stats
        return {
            "drops": stats.messages_lost,
            "partition_drops": stats.partition_drops,
            "delays": stats.delays_injected,
            "duplicates": stats.duplicates,
            "resets": self.resets_injected,
        }


# ----------------------------------------------------------------- parity


def parity_script(
    spec: FaultSpec,
    node_ids: Sequence[int],
    length: int = 256,
    horizon: float = 10.0,
) -> List[Tuple[int, int, float]]:
    """A seeded ``(src, dst, now)`` query script over the given nodes.

    Derived from the spec seed (independently of both verdict RNGs), so
    the same spec always produces the same script — the parity oracle
    compares verdicts, not scripts.
    """
    if len(node_ids) < 2:
        raise ValueError("parity needs at least two nodes")
    rng = random.Random(derive_seed(spec.seed, "wire-parity"))
    ids = sorted(node_ids)
    script = []
    for i in range(length):
        src, dst = rng.sample(ids, 2)
        script.append((src, dst, horizon * i / length))
    return script


def verdict_sequence(
    plan, script: Sequence[Tuple[int, int, float]]
) -> List[str]:
    """Drive a scripted query sequence; collect one verdict kind per leg.

    ``plan`` is either engine's decision core: a sim :class:`FaultPlan`
    (kinds derived from ``severed`` + ``transmit``) or a
    :class:`WireFaultPlan` (kinds from :attr:`WireVerdict.kind`).
    """
    clock = {"now": 0.0}
    plan.bind_clock(lambda: clock["now"])
    kinds = []
    for src, dst, now in script:
        clock["now"] = now
        if isinstance(plan, WireFaultPlan):
            kinds.append(plan.decide(src, dst).kind)
        else:
            partition = plan.severed(src, dst)
            verdict = plan.transmit(src, dst)
            if verdict.lost:
                kinds.append("partition" if partition else "lost")
            else:
                kinds.append("ok")
    return kinds


def decision_parity(
    spec: FaultSpec,
    node_ids: Sequence[int],
    length: int = 256,
    horizon: float = 10.0,
    reset: float = 0.0,
) -> Dict[str, object]:
    """Same spec, both engines, one scripted query stream: verdicts must match.

    Builds a fresh sim :class:`FaultPlan` and a fresh
    :class:`WireFaultPlan` (with wire-only resets enabled, to prove they
    do not perturb the shared stream) from ``spec``, drives both through
    the identical seeded script, and compares the loss/partition verdict
    sequences element-wise.
    """
    script = parity_script(spec, node_ids, length=length, horizon=horizon)
    sim_kinds = verdict_sequence(FaultPlan.from_spec(spec), script)
    wire_kinds = verdict_sequence(WireFaultPlan(spec, reset=reset), script)
    first_divergence: Optional[int] = None
    for i, (a, b) in enumerate(zip(sim_kinds, wire_kinds)):
        if a != b:
            first_divergence = i
            break
    return {
        "ok": sim_kinds == wire_kinds,
        "legs": len(script),
        "losses": sim_kinds.count("lost"),
        "partition_drops": sim_kinds.count("partition"),
        "first_divergence": first_divergence,
    }
