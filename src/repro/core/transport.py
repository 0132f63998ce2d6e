"""The transport seam: how engine-pure node logic reaches time and network.

The same ``PastNode``/``PastryNode`` logic runs over real TCP
(``repro.net``) as well as under the deterministic simulator.
The precondition is an architectural boundary: node logic must reach the
clock, timers, routed messages and direct RPCs through *one* interface,
so that swapping the engine is a constructor argument rather than a
rewrite.  This module defines that interface; the concurrency catalogue
of ``python -m repro check`` enforces it — engine-pure modules
(``pastry.node``, ``pastry.keepalive``, ``core.node``, ``core.storage``,
``core.cache``, ``core.integrity``) may not import the event simulator,
construct one, read ``sim.now``, or call the network's accounting/fault
primitives directly.

:class:`Transport` documents the contract.  It is a structural protocol
(duck typing, no ``abc`` machinery) so the simulator-backed
implementation — :class:`~repro.netsim.transport.SimTransport`,
re-exported here — pays no dispatch overhead on the hot path, and the
real-TCP engine, :class:`~repro.net.asyncio_transport.AsyncioTransport`,
only has to match the method signatures (``core`` never imports it).

Under ``SimTransport`` every ``send`` completes synchronously, so
handlers keep today's run-to-completion atomicity.  Under a concurrent
transport every ``send``/``route`` is a *suspension point*: state read
before it may be stale after.  The analyzer's atomicity family flags
exactly those read-modify-write sequences; see DESIGN.md §4h.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from ..netsim.transport import SimTransport, as_transport

__all__ = ["Transport", "SimTransport", "as_transport"]


class Transport:
    """Structural contract for a transport seam implementation.

    Time plane:

    * ``now() -> float`` — current time (virtual or wall-clock).
    * ``schedule(delay, callback) -> handle`` /
      ``schedule_at(when, callback) -> handle`` — one-shot callbacks;
      ``cancel(handle)`` revokes one.
    * ``every(period, callback, jitter_fn=None, first_delay=None)`` —
      a repeating timer with a ``stop()`` method.

    Message plane:

    * ``route(origin_id, key, message=None, collect_distance=False)`` —
      overlay-routed delivery towards ``key`` (Pastry's ``route``); the
      message in its final state comes back as ``RouteResult.message``.
    * ``send(origin_id, target_id, call, *args, reliable=..., **kwargs)
      -> (delivered, result)`` — one direct RPC; ``delivered`` is False
      when the message was lost or the target unreachable.
    * ``probe(origin_id, peer_id) -> bool`` — one keep-alive probe.

    Arguments and messages go in by value and replies are values: all a
    caller may use of a call is ``result`` / ``RouteResult.message``.
    What a handler or up-call does to the objects it was handed is not
    observable by the caller (the simulator happens to pass references,
    a socket cannot), so callers never read back what they passed in.

    Implementations must be deterministic functions of their inputs and
    any engine state they encapsulate: the schedule explorer replays
    recorded decision sequences through the same seam.
    """

    def now(self) -> float:
        raise NotImplementedError

    def schedule(self, delay: float, callback: Callable[[], None]):
        raise NotImplementedError

    def schedule_at(self, when: float, callback: Callable[[], None]):
        raise NotImplementedError

    def cancel(self, handle) -> None:
        raise NotImplementedError

    def every(
        self,
        period: float,
        callback: Callable[[], None],
        jitter_fn: Optional[Callable[[], float]] = None,
        first_delay: Optional[float] = None,
    ):
        raise NotImplementedError

    def route(self, origin_id: int, key: int, message=None,
              collect_distance: bool = False):
        raise NotImplementedError

    def send(
        self,
        origin_id: int,
        target_id: int,
        call: Optional[Callable[..., Any]],
        *args: Any,
        reliable: bool = False,
        **kwargs: Any,
    ) -> Tuple[bool, Any]:
        raise NotImplementedError

    def probe(self, origin_id: int, peer_id: int) -> bool:
        raise NotImplementedError
