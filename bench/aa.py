#!/usr/bin/env python3
"""A/A check: do two sets of runs of the *same* tree agree within the bounds?

    python3 bench/aa.py [-k 5] [--workload NAME ...] [--seed0 1201]

Runs two alternating sets (A and B) of ``k`` untraced runs per workload.
Run ``i`` of both sets uses seed ``seed0 + i``, so every exact-count metric
must match pairwise, bit for bit, while the timing metrics show what the
machine and the seed do to a number when the code does not change.  Per
metric it prints both set medians, each set's quartile spread (q3-q1 over
the median, as the driver computes it), the relative difference of the
medians (signed so that positive = B worse) and the bound from
BENCHMARK.json.  Exit status 1 if any metric's medians disagree beyond its
bound, any spread other than ``setup_s``'s exceeds its bound, or any exact
metric differs between same-seed runs.  A timing metric whose difference
exceeds half its bound is flagged ``LONGER``: give its phase more work, do
not widen the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Pure functions of (workload, seed): must repeat exactly.
EXACT = ("ok_ops_ratio", "insert_accept_ratio", "storage_utilization",
         "cache_miss_ratio", "lookup_hops_mean")


def run_once(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run reported incorrect outputs")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", type=int, default=5, help="runs per set (>= 5)")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed0", type=int, default=1201)
    parser.add_argument("--json", type=Path, help="also write every run's metrics here")
    args = parser.parse_args(argv)
    if args.k < 5:
        parser.error("-k must be at least 5")

    failed = False
    every = {}
    try:
        for workload in args.workload or [w["name"] for w in spec["workloads"]]:
            sets = every[workload] = {"A": [], "B": []}
            for i in range(args.k):
                for side in ("AB", "BA")[i % 2]:  # alternate which set runs first
                    sets[side].append(run_once(workload, args.seed0 + i))
                    print(f"# {workload} set {side} seed {args.seed0 + i} done",
                          file=sys.stderr, flush=True)
            failed |= report(workload, sets, spec["end_to_end"], args)
    finally:
        if args.json:
            args.json.write_text(json.dumps(every, indent=1))
    return 1 if failed else 0


def report(workload: str, sets: dict, metrics: list, args) -> bool:
    """Print one workload's table; True if any metric fails."""
    failed = False
    print(f"\n## {workload} (k={args.k} per set, seeds {args.seed0}..{args.seed0 + args.k - 1})")
    print(f"{'metric':22s} {'median A':>13s} {'median B':>13s} {'spread A':>9s} "
          f"{'spread B':>9s} {'B worse by':>10s} {'bound':>6s}  verdict")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        a = [run[name] for run in sets["A"]]
        b = [run[name] for run in sets["B"]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a if med_a else 0.0
        if metric["better"] == "higher":
            worse = -worse
        spreads = (spread(a), spread(b))
        verdict = "ok"
        if name in EXACT and a != b:
            verdict = "FAIL exact metric differs between same-seed runs"
        elif abs(worse) > bound:
            verdict = "FAIL medians disagree beyond the bound"
        elif name != "setup_s" and max(spreads) > bound:
            verdict = "FAIL spread beyond the bound"
        elif name not in EXACT and abs(worse) > bound / 2:
            verdict = "LONGER (difference above half the bound)"
        failed |= verdict.startswith("FAIL")
        print(f"{name:22s} {med_a:13.5f} {med_b:13.5f} {spreads[0]:9.4f} "
              f"{spreads[1]:9.4f} {worse:+10.4f} {bound:6.3f}  {verdict}", flush=True)
    return failed


if __name__ == "__main__":
    sys.exit(main())
