#!/usr/bin/env python3
"""The repo's benchmark: one command per workload, every metric by name.

    python3 bench/run.py --workload sim_fill [--seed 1201] [--seconds 20] [--trace 0|1]

``--trace 0`` (default) runs the workload once, untraced, in a fresh pinned
subprocess and prints the 16 end-to-end metrics.  ``--trace 1`` runs it
twice at a reduced op count — once untraced, once under the span wrappers of
``trace.py`` — and prints the per-layer metrics; end-to-end numbers never
come from a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are for people.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

import workloads as wl  # noqa: E402  (bench/ is sys.path[0])

#: Seconds a worker may take before it is killed (the driver allows 180).
WORKER_TIMEOUT_S = 170

#: name -> unit of the end-to-end metrics, in report order.
END_TO_END = {
    "setup_s": "s",
    "insert_ops_s": "1/s",
    "insert_p50_ms": "ms",
    "insert_p95_ms": "ms",
    "lookup_ops_s": "1/s",
    "lookup_p50_ms": "ms",
    "lookup_p95_ms": "ms",
    "reclaim_ops_s": "1/s",
    "join_ops_s": "1/s",
    "churn_ops_s": "1/s",
    "ok_ops_ratio": "ratio",
    "insert_accept_ratio": "ratio",
    "storage_utilization": "ratio",
    "cache_miss_ratio": "ratio",
    "lookup_hops_mean": "hops",
    "peak_rss_mb": "MiB",
}


def run_worker(args, scale: float, setups: int, traced: bool, hashseed: str) -> dict:
    """One pass in a fresh interpreter; returns the worker's record."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", repr(scale), "--setups", str(setups),
    ]
    if args.nodes is not None:
        cmd += ["--nodes", str(args.nodes)]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    try:  # on timeout run() kills the worker and waits for it
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker exceeded {WORKER_TIMEOUT_S}s and was killed")
    if proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end_metrics(rec: dict) -> dict:
    """name -> (value, unit) of the 16 end-to-end metrics of an untraced pass."""
    ph = rec["phases"]
    values = {
        "setup_s": rec["setup_s"],
        "insert_ops_s": ph["insert"]["ops_s"],
        "insert_p50_ms": ph["insert"]["p50_ms"],
        "insert_p95_ms": ph["insert"]["p95_ms"],
        "lookup_ops_s": ph["lookup"]["ops_s"],
        "lookup_p50_ms": ph["lookup"]["p50_ms"],
        "lookup_p95_ms": ph["lookup"]["p95_ms"],
        "reclaim_ops_s": ph["reclaim"]["ops_s"],
        "join_ops_s": ph["join"]["ops_s"],
        "churn_ops_s": ph["churn"]["ops_s"],
        "ok_ops_ratio": rec["ok"] / rec["attempted"],
        "insert_accept_ratio": rec["insert_accept_ratio"],
        "storage_utilization": rec["storage_utilization"],
        "cache_miss_ratio": rec["cache_miss_ratio"],
        "lookup_hops_mean": rec["lookup_hops_mean"],
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def client_metrics(rec: dict) -> dict:
    """Client-side diagnostics of an untraced pass (layer metrics, no bound)."""
    ph = rec["phases"]
    return {
        "client.insert_raw_ops_s": (ph["insert"]["raw_ops_s"], "1/s"),
        "client.lookup_raw_ops_s": (ph["lookup"]["raw_ops_s"], "1/s"),
        "client.insert_p99_ms": (ph["insert"]["p99_ms"], "ms"),
        "client.lookup_p99_ms": (ph["lookup"]["p99_ms"], "ms"),
        "client.calibration_ms_p50": (rec["calibration"]["p50_ms"], "ms"),
        "client.calibration_iqr_ratio": (rec["calibration"]["iqr_ratio"], "ratio"),
        "client.run_wall_s": (rec["run_wall_s"], "s"),
        "client.naive_wire_rtt_us": (rec["naive_wire_rtt_us"], "us"),
    }


def print_phases(rec: dict) -> None:
    print(f"# {rec['workload']} seed={rec['seed']} nodes={rec['nodes']} "
          f"traced={int(rec['traced'])} checksum={rec['checksum']}")
    for kind, p in rec["phases"].items():
        print(f"#   phase {kind:8s} ops={p['ops']:7d} blocks={p['blocks']:5d} "
              f"ref_s={p['ref_s']:8.3f} wall_s={p['wall_s']:8.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=wl.RUN_SECONDS,
                        help="timed seconds to aim for; op counts scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="extra op-count multiplier (smoke test, manual sweeps)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="override the overlay size (smoke test, manual N-sweeps)")
    parser.add_argument("--hashseed", default="0", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    scale = args.scale * args.seconds / wl.RUN_SECONDS
    if not args.trace:
        rec = run_worker(args, scale, wl.SETUP_REPEATS, False, args.hashseed)
        print_phases(rec)
        reported = end_to_end_metrics(rec)
        shown = {**reported, **client_metrics(rec)}
    else:
        import trace as bench_trace  # bench/trace.py

        scale *= wl.WORKLOADS[args.workload].trace_scale
        plain = run_worker(args, scale, 1, False, args.hashseed)
        rec = run_worker(args, scale, 1, True, args.hashseed)
        print_phases(plain)
        print_phases(rec)
        t = rec["trace"]
        print(f"#   trace: spans_sampled={t['spans_sampled']} "
              f"nesting_violations={t['nesting_violations']} self_check_gap="
              + " ".join(f"{k}={g:.4f}" for k, g in t["self_check_gap"].items()))
        if plain["checksum"] != rec["checksum"]:
            print("traced and untraced passes disagree on the outcome checksum",
                  file=sys.stderr)
            return 1
        reported = shown = {**bench_trace.layer_metrics(rec, plain), **client_metrics(plain)}
    for name, (value, unit) in shown.items():
        print(f"{name:48s} {value:16.6f} {unit}")
    correct = rec["ok"] == rec["attempted"] and rec["audit_ok"]
    print(json.dumps({
        "correct": bool(correct),
        "attempted": rec["attempted"],
        "failed": rec["attempted"] - rec["ok"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
