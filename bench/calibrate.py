"""The frozen calibration unit: this box's speed, measured beside every block.

The benchmark runs on a shared 2-vCPU VM whose effective clock drifts by
tens of percent within a minute, so raw wall time does not repeat.  Every
timed block is therefore preceded by one run of :func:`unit` — a fixed
amount of pure-Python work shaped like the program under test (big-int
arithmetic, dict and list traffic, attribute access, a sort) — and the
block's cost is reported as ``wall_block / wall_unit * CAL_REF_S``:
seconds on a *reference core* that runs the unit in exactly
:data:`CAL_REF_S`.

**Never edit this file after the PR that added it.**  Changing the unit's
work or ``CAL_REF_S`` redefines every timing metric of the benchmark, so
no number measured before the edit would compare with one after it.
"""

from __future__ import annotations

import time

#: Wall seconds the reference core needs for one :func:`unit`.
CAL_REF_S = 0.0025

_MASK = (1 << 128) - 1


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int):
        self.key = key
        self.weight = weight


def unit() -> int:
    """One calibration unit (about 2.3 ms on the box this was sized on)."""
    x = 0x9E3779B97F4A7C15F39CC0605CEDC834
    table = {}
    cells = []
    for i in range(2250):
        x = (x * 0x5851F42D4C957F2D14057B7EF767814F + i) & _MASK
        d = (x - (x >> 7)) % (_MASK + 1)
        table[x >> 100] = min(d, _MASK + 1 - d)
        cells.append(_Cell(x >> 96, i))
    cells.sort(key=lambda c: c.key)
    total = 0
    for c in cells:
        total += table.get(c.key >> 4, c.weight) & 0xFFFF
    return total


def timed_unit() -> float:
    """Wall seconds one :func:`unit` took just now."""
    start = time.perf_counter()
    unit()
    return time.perf_counter() - start
