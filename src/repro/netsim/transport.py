"""The transport seam: how engine-pure node logic reaches time and network.

The same ``PastNode``/``PastryNode`` logic runs under the deterministic
simulator and over real TCP (``repro.net``).  What makes that possible is
one boundary: node logic (``pastry.node``, ``pastry.keepalive``,
``core.node``, ``core.integrity``) reaches the clock, timers, routed
messages and direct RPCs only through a transport, and the concurrency
catalogue of ``python -m repro check`` enforces it (DESIGN.md §4h).

A deployment has one messaging transport: the overlay's
``PastryNetwork.transport``, which ``PastNetwork.transport`` reads and
assigns, so swapping the engine is one assignment.  Two implementations
exist, matched by duck typing (no base class, no dispatch overhead):
:class:`SimTransport` here, and
:class:`~repro.net.asyncio_transport.AsyncioTransport`, which ``core``
never imports.  The contract:

* ``route(origin_id, key, message=None, collect_distance=False)`` —
  overlay-routed delivery towards ``key`` (Pastry's ``route``); the
  message in its final state comes back as ``RouteResult.message``.
* ``send(origin_id, target_id, call, *args, reliable=False, **kwargs)
  -> (delivered, result)`` — one direct RPC; ``delivered`` is False when
  the message was lost or the target unreachable.
* ``probe(origin_id, peer_id) -> bool`` — one keep-alive probe.
* ``now() -> float`` and ``realtime`` — the clock, and whether it is
  wall time (only then may engine-agnostic code bound an operation by
  it).
* ``every(period, callback, jitter_fn=None, first_delay=None)`` — a
  repeating timer with ``stop()``; only :class:`SimTransport` has it, for
  the keep-alive monitor and the anti-entropy scrubber, which build their
  own transport over the simulator they are given.

Arguments and messages go in by value and replies are values: all a
caller may use of a call is ``result`` / ``RouteResult.message``.  What a
handler or up-call does to the objects it was handed is not observable
by the caller (the simulator happens to pass references, a socket cannot).
Under ``SimTransport`` every ``send`` completes synchronously; under a
concurrent transport every ``send``/``route`` is a *suspension point*,
where state read before it may be stale after.  Implementations are
deterministic functions of their inputs and the engine state they hold:
the schedule explorer replays recorded decisions through the seam.

Constraints that keep the ScheduleTrace digest pins byte-identical:

* timer callbacks pass through *unwrapped*, so trace labels (callback
  ``__qualname__``\\ s) do not change;
* :meth:`SimTransport.send` draws from the fault plan exactly when the
  pre-seam code did: ``reliable=True`` models the RPCs that never
  consulted ``rpc_lost`` (synchronous pulls whose loss story predates the
  fault plane), and ``call=None`` models an RPC issued to a node already
  known dead — accounted, but undeliverable without a loss draw;
* :meth:`SimTransport.probe` consults ``probe_lost`` without recording
  an RPC, matching the keep-alive plane's original accounting.

The ``overlay`` is duck-typed: anything with ``route``, ``stats`` and
``fault_plan`` works, so this module needs no upward imports.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from .eventsim import _INFRA_FILES, EventSimulator, PeriodicTimer

# Scheduling calls funnel through this module; trace diagnostics must
# keep attributing schedules to the node logic that asked for them.
_INFRA_FILES.add(__file__)


class SimTransport:
    """Transport seam bound to an :class:`EventSimulator` and an overlay.

    The overlay's own transport has no simulator (``sim=None``), so it
    has no clock or timers; the keep-alive monitor and the scrubber bind
    both halves.
    """

    __slots__ = ("sim", "overlay")

    #: Virtual time: the clock never bounds an operation in wall seconds.
    realtime = False

    def __init__(self, sim: Optional[EventSimulator], overlay: Any):
        self.sim = sim
        self.overlay = overlay

    # ----------------------------------------------------------------- time

    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    def every(
        self,
        period: float,
        callback: Callable[[], None],
        jitter_fn: Optional[Callable[[], float]] = None,
        first_delay: Optional[float] = None,
    ) -> PeriodicTimer:
        """Run ``callback`` every ``period`` units until stopped."""
        return self.sim.every(
            period, callback, jitter_fn=jitter_fn, first_delay=first_delay
        )

    # ------------------------------------------------------------- messages

    def route(self, origin_id: int, key: int, message=None,
              collect_distance: bool = False):
        """Route ``message`` from ``origin_id`` towards ``key``."""
        return self.overlay.route(
            origin_id, key, message=message, collect_distance=collect_distance
        )

    def send(
        self,
        origin_id: int,
        target_id: int,
        call: Optional[Callable[..., Any]],
        *args: Any,
        reliable: bool = False,
        **kwargs: Any,
    ) -> Tuple[bool, Any]:
        """One direct (non-routed) RPC from ``origin_id`` to ``target_id``.

        Returns ``(delivered, result)``.  The RPC is always accounted;
        ``call=None`` means the caller already knows the target is
        unreachable (the RPC goes out and times out — no loss draw), and
        ``reliable=True`` skips the fault-plane consult for RPCs whose
        delivery the caller retries at a higher level.
        """
        overlay = self.overlay
        overlay.stats.record_rpc()
        if call is None:
            return False, None
        if not reliable:
            plan = overlay.fault_plan
            if plan is not None and plan.rpc_lost(origin_id, target_id):
                return False, None
        return True, call(*args, **kwargs)

    def probe(self, origin_id: int, peer_id: int) -> bool:
        """One keep-alive probe; True iff the answer came back."""
        plan = self.overlay.fault_plan
        return plan is None or not plan.probe_lost(origin_id, peer_id)
