"""Recovery-period experiment: availability vs. failure-detection delay.

Pastry presumes a node failed after it has been "unresponsive for a
period T" (§2.1), and PAST's availability guarantee is phrased against
exactly that window: a file is lost only if all k replica holders fail
*within a recovery period* — before re-replication can run.

This experiment drives a PAST deployment with a Poisson process of node
crashes on a virtual clock (:mod:`repro.netsim.eventsim`).  Each crash is
silent; its keep-alive expires ``detection_delay`` later, which is when
leaf-set repair and re-replication run.  Crashed nodes recover after
``downtime``.  Sweeping the detection delay shows the paper's trade-off:
small T catches every failure before a second one lands in the same
neighborhood; large T lets failures overlap and files start dying.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional

from ..core.episode import Episode
from .churn import build_and_fill


@dataclass
class RecoveryResult:
    """Outcome of one detection-delay setting."""

    detection_delay: float
    mean_interarrival: float
    crashes: int
    files: int
    available: int
    degraded: int
    elapsed_s: float

    @property
    def availability(self) -> float:
        return self.available / self.files if self.files else 0.0


def _outcome(net, fids: List[int], start: float, detection_delay: float,
             mean_interarrival: float, crashes: int) -> RecoveryResult:
    """Probe every file from one node once the episode is over."""
    probe = net.nodes()[0].node_id
    return RecoveryResult(
        detection_delay=detection_delay,
        mean_interarrival=mean_interarrival,
        crashes=crashes,
        files=len(fids),
        available=sum(net.lookup(fid, probe).success for fid in fids),
        degraded=len(net.degraded_files),
        elapsed_s=time.perf_counter() - start,
    )


def run_recovery_window(
    detection_delays: Optional[List[float]] = None,
    n_nodes: int = 60,
    k: int = 3,
    n_files: int = 300,
    capacity_scale: float = 0.25,
    crash_fraction: float = 0.5,
    mean_interarrival: float = 1.0,
    downtime: float = 30.0,
    disk_loss: bool = True,
    seed: int = 0,
) -> List[RecoveryResult]:
    """Sweep the failure-detection delay T.

    ``crash_fraction`` of the nodes crash over the run, with exponential
    interarrival times of mean ``mean_interarrival`` (the virtual-time
    unit).  ``detection_delays`` are expressed in the same unit; a delay
    of 0 is the synchronous model used elsewhere, a delay much larger
    than the interarrival lets failures pile up undetected.

    ``disk_loss`` makes each crash destroy the node's disk (the §3.5
    "recovering node whose disk contents were lost" case); without it,
    recoveries restore the data and nothing is ever lost.
    """
    detection_delays = detection_delays if detection_delays is not None else [
        0.0, 1.0, 5.0, 20.0
    ]
    results: List[RecoveryResult] = []
    for delay in detection_delays:
        start = time.perf_counter()
        rng = random.Random(seed)
        net = build_and_fill(
            rng, k, n_nodes, capacity_scale, seed, n_files, "recovery", "r"
        )
        fids = net.live_file_ids()

        # The keep-alive monitor stays off: detection is the fixed delay.
        episode = Episode(net)
        crashes = max(1, int(crash_fraction * len(net)))
        when = 0.0
        crash_order = list(net.pastry.node_ids)
        rng.shuffle(crash_order)
        for victim in crash_order[:crashes]:
            when += rng.expovariate(1.0 / mean_interarrival)
            episode.crash_at(when, victim, wipe_disk=disk_loss)
            episode.detect_at(when + delay, victim)
            episode.recover_at(when + downtime, victim)
        episode.sim.run()
        results.append(
            _outcome(net, fids, start, delay, mean_interarrival, crashes)
        )
    return results


def run_keepalive_recovery(
    keepalive_interval: float = 1.0,
    keepalive_timeout: float = 3.0,
    n_nodes: int = 40,
    k: int = 3,
    n_files: int = 150,
    capacity_scale: float = 0.25,
    crash_fraction: float = 0.3,
    mean_interarrival: float = 2.0,
    seed: int = 0,
) -> RecoveryResult:
    """Recovery driven by the actual keep-alive protocol (§2.1).

    Instead of a fixed detection delay, failures are detected by
    :class:`~repro.pastry.keepalive.KeepAliveMonitor` — witnesses probe
    every ``keepalive_interval`` and declare a silent peer failed after
    ``keepalive_timeout``.  The effective recovery period is therefore
    ``timeout + O(interval)``, and the availability outcome should match
    :func:`run_recovery_window` at that delay.
    """
    start = time.perf_counter()
    rng = random.Random(seed)
    net = build_and_fill(
        rng, k, n_nodes, capacity_scale, seed, n_files, "ka-recovery", "ka"
    )
    fids = net.live_file_ids()

    episode = Episode(
        net, interval=keepalive_interval, timeout=keepalive_timeout
    )
    episode.monitor.start()
    crash_order = list(net.pastry.node_ids)
    rng.shuffle(crash_order)
    crashes = max(1, int(crash_fraction * len(net)))
    when = 0.0
    for victim in crash_order[:crashes]:
        when += rng.expovariate(1.0 / mean_interarrival)
        episode.crash_at(when, victim, wipe_disk=True)
    episode.sim.run_until(when + keepalive_timeout + 2 * keepalive_interval + 1.0)
    episode.monitor.stop()
    episode.sim.run()
    return _outcome(
        net, fids, start, keepalive_timeout + keepalive_interval,
        mean_interarrival, crashes,
    )
