"""Command-line interface: print any of the paper's artifacts.

Usage::

    python -m repro list
    python -m repro table2
    python -m repro table2 --nodes 500 --scale 1.0 --seed 7
    python -m repro chaos
    python -m repro serve --nodes 16 --workers 4 --differential
    python -m repro check

``list`` names every artifact command — the rows of
:data:`repro.experiments.artifacts.ARTIFACTS` — with the
``benchmarks/results`` file it regenerates and any parameter it fixes by
itself.  ``repro <command>`` prints ``render(run(*scale))`` of its row, the
call ``pytest benchmarks/ --benchmark-only`` makes; at the default scale
the six rows ``tests/experiments/test_artifacts.py`` runs print exactly
the committed file, and CI's ``paper`` job checks the rest.  ``chaos`` and
``serve`` are harnesses, not artifacts; ``check`` is the static gate
(:mod:`repro.devtools.check`).  Each command accepts only the flags it
reads.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import format_table
from .devtools import check
from .experiments import chaos
from .experiments.artifacts import ARTIFACTS, DEFAULT_SCALE


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
    schema-certified wire codec (certified by ``repro check``).
    ``--differential`` first runs the cross-engine oracle: the same
    seeded workload under SimTransport must produce the same outcome
    checksum as under AsyncioTransport.  A checksum mismatch, a failed
    chaos oracle, a failed lookup or an audit violation exits 1.
    """
    from .net.differential import run_differential, run_serve

    lines = []
    if args.chaos:
        from .experiments.live_chaos import render_live_chaos, run_live_sweep

        report = run_live_sweep(args.seed)
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
    **{
        command: lambda args, row=row: row.render(row.run(args.nodes, args.scale, args.seed))
        for command, row in ARTIFACTS.items()
    },
    "chaos": cmd_chaos,
    "serve": cmd_serve,
}


def list_commands() -> str:
    """Every command; an artifact with its results file and what it fixes."""
    lines = ["artifact commands (-> benchmarks/results/<file>):"]
    for command, row in ARTIFACTS.items():
        fixes = f"  [{row.fixes}]" if row.fixes else ""
        lines.append(f"  {command:<24}{row.stem}.txt{fixes}")
    lines.append("harnesses: chaos, serve; static gate: check")
    return "\n".join(lines)


#: The flags ``serve`` reads only for its own workload, with their
#: defaults; ``--chaos`` runs the live sweep's workload and rejects them.
SERVE_WORKLOAD = {
    "nodes": DEFAULT_SCALE.n_nodes, "files": 32, "workers": 4,
    "differential": False, "data_dir": None,
}


class _Parser(argparse.ArgumentParser):
    """Rejects ``serve --chaos`` combined with a serve-workload flag."""

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        if getattr(parsed, "chaos", False):
            ignored = [
                "--" + dest.replace("_", "-")
                for dest, default in SERVE_WORKLOAD.items()
                if getattr(parsed, dest) != default
            ]
            if ignored:
                self.error(
                    "serve --chaos runs the live sweep's own workload; "
                    f"it would ignore {' '.join(ignored)}"
                )
        return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Reproduce the PAST (SOSP 2001) evaluation tables and figures.",
    )
    nodes, scale, seed = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    nodes.add_argument("--nodes", type=int, default=DEFAULT_SCALE.n_nodes,
                       help="overlay size (paper: 2250)")
    scale.add_argument("--scale", type=float, default=DEFAULT_SCALE.capacity_scale,
                       help="node-capacity scale relative to Table 1")
    seed.add_argument("--seed", type=int, default=DEFAULT_SCALE.seed)
    # One sub-parser per command, taking only the flags that command
    # reads, so any other flag is an error instead of silently ignored.
    commands = parser.add_subparsers(
        dest="command", required=True, parser_class=argparse.ArgumentParser
    )
    reads = {"list": [], "check": [], "chaos": [seed], "serve": [nodes, seed]}
    for name in ["list", "check", *sorted(COMMANDS)]:
        commands.add_parser(name, parents=reads.get(name, [nodes, scale, seed]))
    check.add_arguments(commands.choices["check"])
    serve = commands.choices["serve"]
    serve.add_argument("--files", type=int, default=SERVE_WORKLOAD["files"],
                       help="files to insert in the serve workload")
    serve.add_argument("--workers", type=int, default=SERVE_WORKLOAD["workers"],
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
    if args.command == "check":
        return check.run(args)
    if args.command == "list":
        print(list_commands())
        return 0
    try:
        print(COMMANDS[args.command](args))
    except CommandFailed as failed:
        print(failed)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
