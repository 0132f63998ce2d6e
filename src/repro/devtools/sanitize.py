"""Schedule-trace sanitizer: ``repro sanitize``.

Runs a scenario **twice in subprocesses** under two different
``PYTHONHASHSEED`` values, with the event simulator's trace
instrumentation enabled, and compares the cumulative trace digests
(:class:`repro.netsim.trace.ScheduleTrace`).  A deterministic simulation
produces bit-identical traces; if the digests differ, the harness
binary-searches the cumulative digest lists for the **first divergent
event** and reports it together with the source location that scheduled
it — which is where the hash-order dependence entered the schedule.

Scenarios:

* ``churn`` — the explorer's churn scenario: a small seeded PAST
  deployment under node crashes with keep-alive failure detection and
  recovery; the workload CI smokes to prove the shipped simulator is
  hashseed-independent.
* ``scrub`` — the explorer's scrub scenario (the storage-integrity
  plane): anti-entropy scrub timers, seeded bit rot and a
  crash/recovery.
* ``hazard`` — a deliberately broken scenario that schedules events by
  iterating a set of strings (whose order follows ``PYTHONHASHSEED``);
  used by the test suite to prove the harness localises a real bug.

Exit status: 0 when the traces match, 1 on divergence, 2 for usage
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..netsim.eventsim import EventSimulator
from ..netsim.trace import ScheduleTrace

# --------------------------------------------------------------- scenarios


def scenario_hazard(seed: int) -> ScheduleTrace:
    """An injected set-iteration hazard (intentionally nondeterministic).

    Events are scheduled by iterating a set of *strings*; CPython string
    hashing is salted by ``PYTHONHASHSEED``, so the schedule order — and
    with it the trace digest — differs between interpreter runs.  This
    is the fixture the sanitizer must localise to its first divergent
    event.
    """
    trace = ScheduleTrace()
    sim = EventSimulator(trace=trace)
    names = {f"replica-{seed}-{i}" for i in range(25)}

    def make_event(name: str) -> Callable[[], None]:
        def fire() -> None:
            pass
        fire.__qualname__ = f"hazard_event[{name}]"
        return fire

    # Set order on purpose: this unordered schedule is the bug under test.
    for name in names:
        sim.schedule(1.0, make_event(name))
    sim.run()
    return trace


def _explored(name: str, seed: int) -> ScheduleTrace:
    """The explorer's scenario of that name, run under the FIFO schedule."""
    from .explore.scenarios import SCENARIOS as explored

    return explored[name](seed).trace


SCENARIOS: Dict[str, Callable[[int], ScheduleTrace]] = {
    "churn": partial(_explored, "churn"),
    "scrub": partial(_explored, "scrub"),
    "hazard": scenario_hazard,
}


# -------------------------------------------------------------- divergence


def first_divergence(a: List[str], b: List[str]) -> Optional[int]:
    """Index of the first differing cumulative digest, or None.

    Cumulative digests are prefix-closed: if ``a[i] == b[i]`` the two
    runs agree on events ``0..i``.  That monotonicity is what makes
    binary search valid — and O(log n) beats a linear scan when traces
    run to hundreds of thousands of events.
    """
    n = min(len(a), len(b))
    if n == 0:
        return None if len(a) == len(b) else 0
    if a[n - 1] == b[n - 1]:
        return n if len(a) != len(b) else None
    lo, hi = 0, n - 1  # invariant: divergence index is in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] == b[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


# ------------------------------------------------------------- subprocess


def emit_trace(scenario: str, seed: int) -> None:
    """Run one scenario in-process and print its trace as JSON."""
    print(json.dumps(SCENARIOS[scenario](seed).to_dict()))


def _run_traced(scenario: str, seed: int, hashseed: str) -> dict:
    """Run one scenario in a child interpreter under ``hashseed``."""
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from repro.devtools.sanitize import emit_trace; "
            "emit_trace(sys.argv[1], int(sys.argv[2]))",
            scenario, str(seed),
        ],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"traced run failed (PYTHONHASHSEED={hashseed}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def compare_runs(
    scenario: str, seed: int, hashseeds: Tuple[str, str]
) -> Tuple[dict, dict, Optional[int]]:
    run_a = _run_traced(scenario, seed, hashseeds[0])
    run_b = _run_traced(scenario, seed, hashseeds[1])
    return run_a, run_b, first_divergence(run_a["digests"], run_b["digests"])


def _describe_event(run: dict, index: int) -> str:
    if index < len(run["events"]):
        event = run["events"][index]
        return (
            f"t={event['time']:g} seq={event['seq']} "
            f"callback={event['callback']} scheduled at {event['site']}"
        )
    return "<no event at this index (trace lengths differ)>"


# -------------------------------------------------------------------- CLI


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default="churn",
        help="scenario to run (default: churn)",
    )
    parser.add_argument("--seed", type=int, default=7, help="simulation seed")
    parser.add_argument(
        "--hashseeds", nargs=2, metavar=("A", "B"), default=("0", "12345"),
        help="the two PYTHONHASHSEED values to compare (default: 0 12345)",
    )


def run(args: argparse.Namespace) -> int:
    """``repro sanitize``: 0 when the traces match, 1 on divergence, 2 on error."""
    try:
        run_a, run_b, divergence = compare_runs(
            args.scenario, args.seed, tuple(args.hashseeds)
        )
    except RuntimeError as exc:
        print(f"sanitize: error: {exc}", file=sys.stderr)
        return 2
    events = len(run_a["events"])
    if divergence is None:
        print(
            f"scenario {args.scenario!r} (seed {args.seed}): {events} events, "
            f"identical trace digests under PYTHONHASHSEED="
            f"{args.hashseeds[0]} and {args.hashseeds[1]}"
        )
        print(f"digest: {run_a['digest']}")
        return 0
    print(
        f"scenario {args.scenario!r} (seed {args.seed}): traces DIVERGE at "
        f"event {divergence}"
    )
    print(f"  PYTHONHASHSEED={args.hashseeds[0]}: {_describe_event(run_a, divergence)}")
    print(f"  PYTHONHASHSEED={args.hashseeds[1]}: {_describe_event(run_b, divergence)}")
    print(
        "  the schedule first depends on hash order at this event; inspect "
        "the scheduling site above for iteration over an unordered "
        "collection (see flow-ordering-hazard in the linter)"
    )
    return 1
