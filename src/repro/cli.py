"""Command-line interface: ``python -m repro <command>`` is the one door.

Usage::

    python -m repro list
    python -m repro table2
    python -m repro table2 --nodes 500 --scale 1.0 --seed 7
    python -m repro serve --nodes 16 --workers 4 --differential
    python -m repro chaos --scenario live --seed 2201
    python -m repro check
    python -m repro explore --scenario churn --budget 200
    python -m repro sanitize --scenario churn

``list`` names every artifact command — the rows of
:data:`repro.experiments.artifacts.ARTIFACTS` — with the
``benchmarks/results`` file it regenerates and any parameter it fixes by
itself.  ``repro <command>`` prints ``render(run(*scale))`` of its row, the
call ``pytest benchmarks/ --benchmark-only`` makes; at the default scale
the six rows ``tests/experiments/test_artifacts.py`` runs print exactly
the committed file, and CI's ``paper`` job checks the rest.  ``serve``
boots the live TCP cluster.  The :data:`SUBCOMMANDS` own their flags and
exit status: the chaos harness (:mod:`repro.experiments.chaos`), the
static gate (:mod:`repro.devtools.check`), the schedule explorer
(:mod:`repro.devtools.explore.explorer`) and the hash-seed sanitizer
(:mod:`repro.devtools.sanitize`).  Each command accepts only the flags it
reads.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .devtools import check, sanitize
from .devtools.explore import explorer
from .experiments import chaos
from .experiments.artifacts import ARTIFACTS, DEFAULT_SCALE

#: Commands whose module defines ``add_arguments(parser)`` and
#: ``run(args) -> int`` (the exit status).
SUBCOMMANDS = {"check": check, "chaos": chaos, "explore": explorer, "sanitize": sanitize}


class CommandFailed(Exception):
    """A command's own oracle failed: print the message, then exit 1."""


def cmd_serve(args) -> str:
    """Boot a real localhost TCP cluster and serve insert/lookup traffic.

    Every RPC and routed message crosses a localhost socket through the
    schema-certified wire codec (certified by ``repro check``).
    ``--differential`` first runs the cross-engine oracle: the same
    seeded workload under SimTransport must produce the same outcome
    checksum as under AsyncioTransport.  A checksum mismatch, a failed
    lookup or an audit violation exits 1.
    """
    from .net.differential import run_differential, run_serve

    lines = []
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
    "serve": cmd_serve,
}


def list_commands() -> str:
    """Every command; an artifact with its results file and what it fixes."""
    lines = ["artifact commands (-> benchmarks/results/<file>):"]
    for command, row in ARTIFACTS.items():
        fixes = f"  [{row.fixes}]" if row.fixes else ""
        lines.append(f"  {command:<24}{row.stem}.txt{fixes}")
    lines.append("harnesses: chaos, serve; checks: check, explore, sanitize")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list")
    for name in sorted(COMMANDS):
        commands.add_parser(
            name, parents=[nodes, seed] if name == "serve" else [nodes, scale, seed]
        )
    for name, module in SUBCOMMANDS.items():
        module.add_arguments(commands.add_parser(name))
    serve = commands.choices["serve"]
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
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in SUBCOMMANDS:
        return SUBCOMMANDS[args.command].run(args)
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
