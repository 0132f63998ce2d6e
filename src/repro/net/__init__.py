"""Real-network execution plane for the PAST reproduction.

The deterministic simulator proves the *algorithms*; this package proves
the *system*: the same engine-pure node logic served over localhost TCP,
every RPC and routed message encoded by a codec generated from the
statically-certified ``wire_schema.json``.

- :mod:`repro.net.codec` — deterministic length-prefixed wire codec,
  type registry pinned by the committed schema.
- :mod:`repro.net.asyncio_transport` — the ``Transport`` seam over real
  sockets, one server per node; it consults the simulator's own
  :class:`~repro.netsim.faults.FaultPlan` (``install_faults``) and adds
  the one wire-only fault, a mid-frame reset.
- :mod:`repro.net.differential` — cross-engine oracle (SimTransport vs
  AsyncioTransport outcome checksums) and the ``repro serve`` bench.
"""

from .codec import CodecError, WireCodec
from .asyncio_transport import (
    AsyncioTransport,
    Backpressure,
    InjectedLoss,
    InjectedReset,
    RemoteCallError,
    WireStats,
)
from .differential import (
    build_cluster,
    outcome_checksum,
    run_differential,
    run_serve,
    run_workload,
)

__all__ = [
    "AsyncioTransport",
    "Backpressure",
    "CodecError",
    "InjectedLoss",
    "InjectedReset",
    "RemoteCallError",
    "WireCodec",
    "WireStats",
    "build_cluster",
    "outcome_checksum",
    "run_differential",
    "run_serve",
    "run_workload",
]
