"""Block-wise, calibrated timing of one phase.

A phase is cut into fixed-size blocks of client operations.  One
calibration unit (:mod:`calibrate`) runs before the first block and after
every block, so the phase is interleaved with readings of the machine's
speed about every 25 ms.  A block's cost is its wall time divided by the
*mean of the readings within* ``WINDOW`` *blocks on either side*, times
``CAL_REF_S`` — seconds on the reference core — and a phase's time is the
sum of its blocks' costs.  Per-operation latencies are rescaled by their
own block's divisor.

Why a window and not the one reading next to the block: a 2.3 ms unit is
shorter than a scheduler time slice, so under CPU contention single
readings are bimodal (untouched, or hit by a whole slice) while a 25 ms
block always pays its share; dividing by one reading is then biased and
noisy.  With a synthetic 15-50 % same-CPU disturber, sim_fill's phase times
(half-size phases of 0.8-2.7 s) moved +2..+28 % using the reading before
the block, -1..+19 % using the two adjacent readings, and -13..+13 %
(mostly within 5 %) using this window; raw wall time moved +8..+70 %.
Undisturbed, all three repeat within 3 %.
The window is still local (about half a second), so drift of the box's
speed inside a phase is followed, which matters where the work changes
half-way (diversion setting in doubles the cost of sim_fill's inserts).

The garbage collector runs only inside timed blocks.  The calibration unit
allocates a few thousand objects, so with the collector left on it triggers
most collections itself, and a full collection of the program's heap (90 ms
at 400 k objects) landing in a 2.5 ms reading triples the divisor of the 17
blocks around it: which seed that happened to decided "insert throughput"
by up to a third.  The same goes for the oracle between blocks.  With the
collector off outside blocks, every collection is paid where the program
allocates, and the readings are clean.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, List, Optional, Sequence

from calibrate import CAL_REF_S, timed_unit

#: Blocks on either side whose calibration readings divide a block's wall time.
WINDOW = 8


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``q`` in 0..1)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[rank]


class Phase:
    """Calibrated cost of one timed phase, accumulated block by block."""

    def __init__(self, kind: str, keep_latencies: bool = True):
        self.kind = kind
        #: Reading ``i`` precedes block ``i``; reading ``i + 1`` follows it.
        self.calibrations: List[float] = []
        self._stamps: List[List[float]] = []  # per block: op boundaries
        self._keep = keep_latencies

    def run(
        self,
        items: Sequence,
        block: int,
        op: Callable,
        check: Optional[Callable[[Sequence, List], None]] = None,
    ) -> None:
        """Run ``op(item)`` for every item, ``block`` items per timed block.

        An exception escaping ``op`` is recorded as that operation's
        result and the phase continues; ``check(chunk, results)`` runs
        after each block, outside the timed region.
        """
        gc.collect()
        gc.disable()
        try:
            clock = time.perf_counter
            self.calibrations.append(timed_unit())
            for start in range(0, len(items), block):
                chunk = items[start:start + block]
                results: List = []
                gc.enable()
                stamps = [clock()]
                for item in chunk:
                    try:
                        results.append(op(item))
                    except Exception as exc:  # the run continues; the oracle counts it
                        results.append(exc)
                    stamps.append(clock())
                gc.disable()
                self.calibrations.append(timed_unit())
                self._stamps.append(stamps)
                if check is not None:
                    check(chunk, results)
        finally:
            gc.enable()

    def add_timed(self, fn: Callable[[], object]) -> object:
        """Time one call of ``fn`` as a single-operation block (set-up steps).

        Consecutive calls share the reading between them.
        """
        gc.disable()
        try:
            if not self.calibrations:
                self.calibrations.append(timed_unit())
            gc.enable()
            start = time.perf_counter()
            out = fn()
            end = time.perf_counter()
            gc.disable()
            self.calibrations.append(timed_unit())
        finally:
            gc.enable()
        self._stamps.append([start, end])
        return out

    # ------------------------------------------------------------ summaries

    @property
    def ops(self) -> int:
        return sum(len(s) - 1 for s in self._stamps)

    @property
    def wall_s(self) -> float:
        """Raw wall seconds inside blocks (calibration units excluded)."""
        return sum(s[-1] - s[0] for s in self._stamps)

    def _scales(self) -> List[float]:
        """Per block: reference-core seconds per wall second."""
        cal = self.calibrations
        return [
            CAL_REF_S / statistics.fmean(cal[max(0, i - WINDOW): i + WINDOW + 2])
            for i in range(len(self._stamps))
        ]

    @property
    def ref_s(self) -> float:
        """Reference-core seconds: sum over blocks of wall / local calibration."""
        return sum(
            (s[-1] - s[0]) * scale for s, scale in zip(self._stamps, self._scales())
        )

    def summary(self) -> dict:
        ref_s, wall_s, ops = self.ref_s, self.wall_s, self.ops
        lat: List[float] = []
        if self._keep:
            for stamps, scale in zip(self._stamps, self._scales()):
                ms = 1000.0 * scale
                lat.extend((b - a) * ms for a, b in zip(stamps, stamps[1:]))
            lat.sort()
        return {
            "kind": self.kind,
            "ops": ops,
            "blocks": len(self._stamps),
            "ref_s": ref_s,
            "wall_s": wall_s,
            "ops_s": ops / ref_s if ref_s > 0 else 0.0,
            "raw_ops_s": ops / wall_s if wall_s > 0 else 0.0,
            "p50_ms": percentile(lat, 0.50),
            "p95_ms": percentile(lat, 0.95),
            "p99_ms": percentile(lat, 0.99),
        }


def calibration_gauge(samples: Sequence[float]) -> dict:
    """Median and relative interquartile range of the calibration readings."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return {"p50_ms": 1000.0 * q2, "iqr_ratio": (q3 - q1) / q2 if q2 else 0.0}
