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

:func:`analyze` returns a run as a value and :func:`run` prints it, so
tests can analyse the tree once and read every whole-tree gate off it.

Exit status: 0 clean, 1 findings, 2 usage error (unreadable path or
baseline, unparseable source).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

from .conc.rules import conc_rules
from .framework import (
    Finding,
    LintError,
    ModuleInfo,
    Rule,
    collect_modules,
    filter_baselined,
    record_baseline,
    run_rules,
)
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


@dataclass
class CheckResult:
    """One run of the gate: what ``run`` prints and the modules behind it."""

    modules: List[ModuleInfo]
    findings: List[Finding]  #: every catalogue's, before the baseline
    new: List[Finding]  #: the ones the baseline does not accept
    baselined: int
    schema: str  #: ``match``, ``drift``, or ``skipped`` (no schema in paths)

    def render(self, as_json: bool = False) -> str:
        """What ``repro check`` prints, with ``--json`` when ``as_json``."""
        if as_json:
            return json.dumps({
                "findings": [f.to_dict() for f in self.new],
                "count": len(self.new),
                "baselined": self.baselined,
                "schema": self.schema,
            }, indent=2, sort_keys=True)
        noun = "finding" if len(self.new) == 1 else "findings"
        return "\n".join([*(f.render() for f in self.new), (
            f"{len(self.new)} {noun} in {len(self.modules)} modules "
            f"({self.baselined} baselined); wire schema: {self.schema}"
        )])


def analyze(paths: Sequence[str]) -> CheckResult:
    """Parse ``paths`` once, run every catalogue and apply the baseline."""
    with_schema = _holds_schema(paths)
    modules = collect_modules(paths)
    findings = run_rules(modules, _catalogue(with_schema))
    new, baselined = filter_baselined(findings, str(BASELINE_PATH))
    drift = any(f.rule == "wire-schema-drift" for f in findings)
    schema = "drift" if drift else "match" if with_schema else "skipped"
    return CheckResult(modules, findings, new, baselined, schema)


def _write(args: argparse.Namespace) -> None:
    with_schema = _holds_schema(args.paths)
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
    if args.write_baseline:
        print(record_baseline(str(BASELINE_PATH), run_rules(modules, _catalogue(with_schema))))


def run(args: argparse.Namespace) -> int:
    try:
        if args.write_schema or args.write_baseline:
            _write(args)
            return 0
        result = analyze(args.paths)
    except LintError as exc:
        print(f"check: error: {exc}", file=sys.stderr)
        return 2
    print(result.render(args.json))
    return 1 if result.new else 0
