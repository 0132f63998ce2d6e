"""``repro check [paths]`` — the one static gate.

Parses the given paths (default ``src``) once and runs three rule
catalogues over them together: determinism / purity / layering
(:mod:`repro.devtools.rules`), concurrency readiness
(:mod:`repro.devtools.conc`) and wire safety (:mod:`repro.devtools.wire`).
Findings recorded in the committed baseline (:data:`BASELINE_PATH`) are
counted, not reported; the tests keep lint, wire and ``conc-seam``
findings out of it, so only conc debt is ever accepted.  When the paths
contain the committed wire schema, ``wire-schema-drift`` byte-compares it
with the schema recomputed from source.

Exit status: 0 clean, 1 findings, 2 usage error (unreadable path or
baseline, unparseable source).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Sequence

from .conc.rules import conc_rules
from .framework import LintError, Rule, collect_modules, filter_baselined, record_baseline, run_rules
from .rules import all_rules
from .wire.extract import get_wire_analysis
from .wire.rules import wire_rules
from .wire.schema import DEFAULT_SCHEMA_PATH, build_schema, write_schema

#: The accepted-debt baseline, committed beside the paper's results.
BASELINE_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / "conc_baseline.json"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print one JSON payload {findings, count, baselined, schema}",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help=f"record the current findings as accepted debt in {BASELINE_PATH.name}",
    )
    parser.add_argument(
        "--write-schema", action="store_true",
        help=f"rewrite {DEFAULT_SCHEMA_PATH.name} from the RPC surface in source",
    )


def _holds_schema(paths: Sequence[str]) -> bool:
    return any(
        Path(p).resolve() in (DEFAULT_SCHEMA_PATH, *DEFAULT_SCHEMA_PATH.parents)
        for p in paths
    )


def _catalogue(with_schema: bool) -> List[Rule]:
    rules = [*all_rules(), *conc_rules(), *wire_rules()]
    if with_schema:
        return rules
    return [rule for rule in rules if rule.name != "wire-schema-drift"]


def run(args: argparse.Namespace) -> int:
    with_schema = _holds_schema(args.paths)
    try:
        modules = collect_modules(args.paths)
        if args.write_schema:
            if not with_schema:
                raise LintError(f"--write-schema needs paths that contain {DEFAULT_SCHEMA_PATH}")
            schema = build_schema(get_wire_analysis(modules))
            write_schema(schema, DEFAULT_SCHEMA_PATH)
            print(
                f"schema written: {len(schema['rpcs'])} rpcs, "
                f"{len(schema['messages'])} messages in {DEFAULT_SCHEMA_PATH}"
            )
            if not args.write_baseline:
                return 0
        findings = run_rules(modules, _catalogue(with_schema))
        if args.write_baseline:
            print(record_baseline(str(BASELINE_PATH), findings))
            return 0
        new, baselined = filter_baselined(findings, str(BASELINE_PATH))
    except LintError as exc:
        print(f"check: error: {exc}", file=sys.stderr)
        return 2
    if not with_schema:
        schema_state = "skipped"
    elif any(f.rule == "wire-schema-drift" for f in findings):
        schema_state = "drift"
    else:
        schema_state = "match"
    if args.json:
        print(json.dumps({
            "findings": [f.to_dict() for f in new],
            "count": len(new),
            "baselined": baselined,
            "schema": schema_state,
        }, indent=2, sort_keys=True))
    else:
        for finding in new:
            print(finding.render())
        noun = "finding" if len(new) == 1 else "findings"
        print(
            f"{len(new)} {noun} in {len(modules)} modules "
            f"({baselined} baselined); wire schema: {schema_state}"
        )
    return 1 if new else 0
