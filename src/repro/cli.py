"""Command-line interface: run any of the paper's experiments directly.

Usage::

    python -m repro list
    python -m repro baseline --nodes 100 --scale 0.25
    python -m repro table2
    python -m repro table3 | table4
    python -m repro figure4 | figure5 | figure6 | figure7 | figure8
    python -m repro availability
    python -m repro churn
    python -m repro chaos
    python -m repro serve --nodes 16 --workers 4 --differential

Every command prints the same paper-vs-measured report the benchmark
suite produces.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import (
    format_caching_summary,
    format_curve,
    format_sweep_table,
    format_table,
    summarize_run,
)
from .experiments import caching, chaos, churn, locality, recovery, security, storage


def _scale_args(args) -> dict:
    return {
        "n_nodes": args.nodes,
        "capacity_scale": args.scale,
        "seed": args.seed,
    }


def cmd_baseline(args) -> str:
    run = storage.run_baseline_no_diversion(**_scale_args(args))
    return format_table(
        ["metric", "measured", "paper"],
        [
            ["insert failures %", run.fail_pct, storage.PAPER_BASELINE["fail_pct"]],
            ["final utilization %", run.utilization * 100, storage.PAPER_BASELINE["util_pct"]],
        ],
        title="Baseline (no diversion): " + summarize_run(run),
    )


def cmd_table2(args) -> str:
    sweep = storage.run_table2(**_scale_args(args))
    return format_sweep_table(
        sweep, "dist", "Dist",
        "Table 2 - storage distributions x leaf-set size (l=16 block, then l=32)",
        paper_key=lambda r: (r["dist"], r["l"]),
    )


def cmd_table3(args) -> str:
    sweep = storage.run_table3(**_scale_args(args))
    table = format_sweep_table(
        sweep, "t_pri", "t_pri", "Table 3 - t_pri sweep (t_div=0.05)",
        paper_key=lambda r: r["t_pri"],
    )
    curves = storage.figure2_curves(sweep)
    blocks = [table, "", "Figure 2 - cumulative failure ratio vs. utilization:"]
    for t_pri, curve in curves.items():
        pts = [(round(u * 100, 1), round(r, 5)) for u, r in curve]
        blocks.append(format_curve(pts, ["util %", "failure ratio"],
                                   title=f"  t_pri={t_pri}", max_points=8))
    return "\n".join(blocks)


def cmd_table4(args) -> str:
    sweep = storage.run_table4(**_scale_args(args))
    table = format_sweep_table(
        sweep, "t_div", "t_div", "Table 4 - t_div sweep (t_pri=0.1)",
        paper_key=lambda r: r["t_div"],
    )
    curves = storage.figure3_curves(sweep)
    blocks = [table, "", "Figure 3 - cumulative failure ratio vs. utilization:"]
    for t_div, curve in curves.items():
        pts = [(round(u * 100, 1), round(r, 5)) for u, r in curve]
        blocks.append(format_curve(pts, ["util %", "failure ratio"],
                                   title=f"  t_div={t_div}", max_points=8))
    return "\n".join(blocks)


def cmd_figure4(args) -> str:
    _, curves = storage.run_figure4(**_scale_args(args))
    pts = [
        (round(u * 100, 1), round(r1, 4), round(r2, 4), round(r3, 4), round(f, 4))
        for u, r1, r2, r3, f in curves
    ]
    return format_curve(
        pts, ["util %", "1 redirect", "2 redirects", "3 redirects", "failures"],
        title="Figure 4 - file diversions and insert failures vs. utilization",
        max_points=14,
    )


def cmd_figure5(args) -> str:
    _, curve = storage.run_figure5(**_scale_args(args))
    pts = [(round(u * 100, 1), round(r, 4)) for u, r in curve]
    return format_curve(
        pts, ["util %", "diverted replica ratio"],
        title="Figure 5 - cumulative replica-diversion ratio vs. utilization",
        max_points=14,
    )


def _failure_table(scatter, title: str) -> str:
    rows = []
    for lo in range(0, 100, 10):
        bucket = [s for u, s in scatter if lo <= u * 100 < lo + 10]
        if bucket:
            rows.append(
                [f"{lo}-{lo + 10}%", len(bucket), min(bucket), int(sum(bucket) / len(bucket))]
            )
    return format_table(
        ["util bucket", "# failed", "min failed size", "mean failed size"], rows, title=title
    )


def cmd_figure6(args) -> str:
    _, scatter, _ = storage.run_figure6(**_scale_args(args))
    return _failure_table(scatter, "Figure 6 - failed insertions (web workload)")


def cmd_figure7(args) -> str:
    _, scatter, _ = storage.run_figure7(**_scale_args(args))
    return _failure_table(
        scatter, "Figure 7 - failed insertions (filesystem workload, capacities x10)"
    )


def cmd_figure8(args) -> str:
    results = caching.run_figure8(**_scale_args(args))
    blocks = [format_caching_summary(results, title="Figure 8 - caching policies")]
    for policy, res in results.items():
        curve = [
            (round(u * 100), round(h, 3), round(hp, 2), n)
            for u, h, hp, n in res.curve
            if n > 50
        ]
        blocks.append(format_curve(curve, ["util %", "hit ratio", "hops", "lookups"],
                                   title=f"  policy={policy}", max_points=10))
    return "\n".join(blocks)


def cmd_availability(args) -> str:
    results = churn.run_availability_sweep(
        n_nodes=args.nodes, capacity_scale=args.scale, seed=args.seed
    )
    rows = [
        [r.k, f"{r.fail_fraction:.0%}", r.files,
         round(100 * r.availability, 2), round(100 * r.availability_after_repair, 2)]
        for r in results
    ]
    return format_table(
        ["k", "failed", "files", "available %", "after repair %"],
        rows,
        title="Availability under simultaneous failures (why the paper picks k=5)",
    )


def cmd_churn(args) -> str:
    result = churn.run_churn_experiment(
        n_nodes=args.nodes, capacity_scale=args.scale, seed=args.seed
    )
    rows = [
        [t["round"], t["action"], t["nodes"], t["audit_ok"], t["degraded"]]
        for t in result.timeline
    ]
    table = format_table(
        ["round", "action", "nodes", "audit ok", "degraded"],
        rows,
        title=(
            f"Churn: {result.rounds} rounds, {result.files} files, "
            f"{result.final_available} still available, "
            f"audits {result.audits_passed}/{result.audits_total} clean"
        ),
    )
    return table


def cmd_recovery(args) -> str:
    results = recovery.run_recovery_window(
        n_nodes=args.nodes, capacity_scale=args.scale, seed=args.seed
    )
    rows = [
        [r.detection_delay, r.crashes, round(100 * r.availability, 2), r.degraded]
        for r in results
    ]
    return format_table(
        ["detection delay T", "crashes", "available %", "degraded"],
        rows,
        title="Availability vs. failure-detection window (the §2.1 recovery period)",
    )


def cmd_locality(args) -> str:
    loc = locality.run_replica_locality(
        n_nodes=args.nodes, capacity_scale=max(args.scale, 1.0), seed=args.seed
    )
    stretch = locality.run_route_stretch(n_nodes=args.nodes, seed=args.seed)
    rows = [
        ["nearest replica share", round(loc.rank_share(0), 3), 0.76],
        ["top-2 replica share", round(loc.rank_share(1), 3), 0.92],
        ["route stretch", round(stretch.mean_stretch, 3), 1.5],
    ]
    return format_table(
        ["metric", "measured", "paper ([27])"],
        rows,
        title=f"Replica locality over {loc.lookups} lookups (k={loc.k})",
    )


def cmd_security(args) -> str:
    results = security.run_malicious_routing(
        n_nodes=args.nodes, seed=args.seed
    )
    det = {r.malicious_fraction: r for r in results if not r.randomized}
    ran = {r.malicious_fraction: r for r in results if r.randomized}
    rows = [
        [f"{f:.0%}", round(det[f].success_ratio, 3), round(ran[f].success_ratio, 3)]
        for f in sorted(det)
    ]
    return format_table(
        ["malicious nodes", "deterministic", "randomized"],
        rows,
        title="Lookup success under message-dropping nodes (§2.3)",
    )


def cmd_chaos(args) -> str:
    """Loss sweep under the fault plane: baseline vs. retry+hedge clients.

    The full harness (partitions, crash storms, durability oracles) is
    ``python -m repro.experiments.chaos``; this command runs just the
    availability sweep so it fits the figure-style CLI.
    """
    sweep = chaos.run_loss_sweep(seed=args.seed)
    by_rate = {}
    for r in sweep:
        rate, _, tag = r.scenario.partition("/")
        by_rate.setdefault(rate, {})[tag] = r
    rows = []
    for rate in sorted(by_rate, key=lambda s: float(s.split("=")[1])):
        base = by_rate[rate]["baseline"]
        res = by_rate[rate]["retry+hedge"]
        rows.append(
            [rate, round(100 * base.lookup_success, 2),
             round(100 * res.lookup_success, 2),
             round(res.mean_attempts, 2), res.hedged_successes]
        )
    return format_table(
        ["loss", "baseline %", "retry+hedge %", "attempts/op", "hedged"],
        rows,
        title="Lookup availability under uniform message loss "
              "(full harness: python -m repro.experiments.chaos)",
    )


class CommandFailed(Exception):
    """A command's own oracle failed: print the message, then exit 1."""


def cmd_serve(args) -> str:
    """Boot a real asyncio-TCP cluster and serve insert/lookup traffic.

    Every RPC and routed message crosses a localhost socket through the
    schema-certified wire codec (see ``python -m repro.devtools.wire``).
    ``--differential`` first runs the cross-engine oracle: the same
    seeded workload under SimTransport must produce the same outcome
    checksum as under AsyncioTransport.  A checksum mismatch, a failed
    chaos oracle, a failed lookup or an audit violation exits 1.
    """
    from .net.differential import run_differential, run_serve

    lines = []
    if args.chaos:
        from .experiments.live_chaos import (
            LiveChaosConfig, render_live_chaos, run_live_sweep,
        )

        report = run_live_sweep(LiveChaosConfig(seed=args.seed))
        text = render_live_chaos(report, bench_out=args.out)
        if report.oracle_failures():
            raise CommandFailed(text)
        return text
    if args.differential:
        diff = run_differential(
            n_nodes=min(args.nodes, 16), n_files=args.files, seed=args.seed
        )
        status = "MATCH" if diff["equal"] else "MISMATCH"
        lines.append(f"differential oracle: {status}")
        lines.append(f"  sim     {diff['sim']}")
        lines.append(f"  asyncio {diff['asyncio']}")
        if not diff["equal"]:
            raise CommandFailed("\n".join(lines))
    bench = run_serve(
        n_nodes=args.nodes, n_files=args.files, seed=args.seed,
        workers=args.workers, data_dir=args.data_dir,
    )
    if bench.get("interrupted"):
        shutdown = bench.get("shutdown", {})
        lines.append(
            "interrupted: drained in-flight dispatches "
            f"({'clean' if shutdown.get('drained') else 'timed out'}), "
            f"flushed {shutdown.get('wals_flushed', 0)} WALs"
        )
        return "\n".join(lines)
    if args.out:
        chaos.write_bench(args.out, bench)
        lines.append(f"bench written to {args.out}")
    timing = bench["timing"]
    lines.append(
        f"served {bench['ops']} ops on {bench['nodes']} nodes "
        f"({bench['workers']} client threads): "
        f"{timing['ops_per_sec']} ops/s, wall {timing['wall_s']}s, "
        f"peak RSS {timing['peak_rss_kb']} kB"
    )
    lines.append(
        f"lookup failures: {bench['lookup_failures']}  "
        f"audit violations: {bench['audit_violations']}"
    )
    lines.append(f"outcome checksum: {bench['checksum']}")
    durability = bench.get("durability")
    if durability is not None:
        lines.append(
            f"durable restart: node {durability['victim']} killed and "
            f"recovered from its WAL "
            f"({durability['records_replayed']} records replayed, "
            f"{durability['entries_restored']} entries restored, "
            f"recovered_all={durability['recovered_all']})"
        )
        shutdown = bench.get("shutdown", {})
        lines.append(
            f"shutdown: drained={shutdown.get('drained')} "
            f"wals_flushed={shutdown.get('wals_flushed')}"
        )
    text = "\n".join(lines)
    if bench["lookup_failures"] or bench["audit_violations"]:
        raise CommandFailed(text)
    return text


COMMANDS = {
    "baseline": cmd_baseline,
    "chaos": cmd_chaos,
    "serve": cmd_serve,
    "recovery": cmd_recovery,
    "locality": cmd_locality,
    "security": cmd_security,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "table4": cmd_table4,
    "figure4": cmd_figure4,
    "figure5": cmd_figure5,
    "figure6": cmd_figure6,
    "figure7": cmd_figure7,
    "figure8": cmd_figure8,
    "availability": cmd_availability,
    "churn": cmd_churn,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the PAST (SOSP 2001) evaluation tables and figures.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS) + ["list"])
    parser.add_argument("--nodes", type=int, default=100,
                        help="overlay size (paper: 2250)")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="node-capacity scale relative to Table 1")
    parser.add_argument("--seed", type=int, default=42)
    serve = parser.add_argument_group("serve options")
    serve.add_argument("--files", type=int, default=32,
                       help="files to insert in the serve workload")
    serve.add_argument("--workers", type=int, default=4,
                       help="concurrent client threads for the lookup phase")
    serve.add_argument("--differential", action="store_true",
                       help="run the SimTransport-vs-AsyncioTransport "
                            "oracle before serving")
    serve.add_argument("--out", metavar="FILE", default=None,
                       help="write the BENCH-style serve record to FILE")
    serve.add_argument("--data-dir", metavar="DIR", default=None,
                       help="journal every node's store to a WAL under DIR; "
                            "a killed node restarts from its journal")
    serve.add_argument("--chaos", action="store_true",
                       help="run the live chaos harness instead: seeded "
                            "socket-level loss/partition/reset injection "
                            "plus mid-traffic kills with WAL restarts, "
                            "judged by the sim sweeps' oracles")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print("available commands:", ", ".join(sorted(COMMANDS)))
        return 0
    try:
        print(COMMANDS[args.command](args))
    except CommandFailed as failed:
        print(failed)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
