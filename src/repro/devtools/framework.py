"""Lint framework: module loading, rule protocol, suppressions, engine.

The framework is deliberately small: a :class:`ModuleInfo` bundles one
parsed source file (path, dotted module name, AST, per-line suppression
table), a :class:`Rule` inspects one module at a time, and a
:class:`ProjectRule` sees the whole module set at once (for cross-file
properties such as protocol completeness).  :func:`run_rules` applies a
rule set and filters findings through ``# lint: ignore[...]`` comments.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

#: Per-line suppression comment: ``# lint: ignore`` silences every rule on
#: that physical line, ``# lint: ignore[rule-a,rule-b]`` only the named ones.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9_\-, ]*)\])?")


class LintError(Exception):
    """Raised for usage errors (unknown rule, unreadable path)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class ModuleInfo:
    """A parsed source module plus everything rules need to inspect it."""

    path: str
    name: str
    source: str
    tree: ast.Module
    #: line number -> None (suppress all rules) or set of rule names.
    suppressions: Dict[int, Optional[Set[str]]] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """The package this module's relative imports resolve against."""
        if Path(self.path).name == "__init__.py":
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""

    @property
    def subpackage(self) -> Optional[str]:
        """First component below ``repro`` (``repro.core.node`` -> ``core``).

        ``None`` for modules outside the ``repro`` namespace; top-level
        modules such as ``repro.cli`` map to their own stem.
        """
        parts = self.name.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            return None
        return parts[1]


def _parse_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        if match.group(1) is None:
            table[lineno] = None
        else:
            names = {part.strip() for part in match.group(1).split(",") if part.strip()}
            table[lineno] = names or None
    return table


def _module_name_for(path: Path) -> str:
    """Dotted module name for a file, anchored at the ``repro`` package."""
    parts = list(path.parts)
    name_parts: List[str]
    if "repro" in parts:
        name_parts = parts[parts.index("repro"):]
    else:
        name_parts = [path.name]
    if name_parts[-1] == "__init__.py":
        name_parts = name_parts[:-1]
    elif name_parts[-1].endswith(".py"):
        name_parts[-1] = name_parts[-1][:-3]
    return ".".join(name_parts)


def module_from_source(source: str, name: str = "snippet", path: str = "<memory>") -> ModuleInfo:
    """Build a :class:`ModuleInfo` from an in-memory snippet (tests, tools)."""
    tree = ast.parse(source, filename=path)
    return ModuleInfo(
        path=path,
        name=name,
        source=source,
        tree=tree,
        suppressions=_parse_suppressions(source),
    )


def collect_modules(paths: Sequence[Union[str, Path]]) -> List[ModuleInfo]:
    """Load every ``.py`` file under the given files/directories.

    Files that fail to parse raise :class:`LintError` — a tree that cannot
    be parsed cannot be linted, and silently skipping it would report a
    clean run over broken code.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise LintError(f"no such file or directory: {path}")
    modules: List[ModuleInfo] = []
    for file in files:
        source = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            raise LintError(f"{file}:{exc.lineno}: syntax error: {exc.msg}") from exc
        modules.append(
            ModuleInfo(
                path=str(file),
                name=_module_name_for(file),
                source=source,
                tree=tree,
                suppressions=_parse_suppressions(source),
            )
        )
    return modules


class Rule:
    """One static check, applied to each module independently."""

    #: Unique kebab-case identifier, used in output and suppressions.
    name: str = ""
    #: One-line human description of what the rule catches.
    description: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=module.path,
            line=getattr(node, "lineno", 1),
            message=message,
        )


class ProjectRule(Rule):
    """A check over the whole module set (cross-file properties)."""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        raise NotImplementedError


def _suppressed(finding: Finding, by_path: Dict[str, ModuleInfo]) -> bool:
    module = by_path.get(finding.path)
    if module is None:
        return False
    if finding.line not in module.suppressions:
        return False
    names = module.suppressions[finding.line]
    return names is None or finding.rule in names


def run_rules(modules: Sequence[ModuleInfo], rules: Sequence[Rule]) -> List[Finding]:
    """Apply every rule, drop suppressed findings, and sort by location."""
    by_path = {module.path: module for module in modules}
    findings: List[Finding] = []
    for rule in rules:
        produced: Iterable[Finding]
        if isinstance(rule, ProjectRule):
            produced = rule.check_project(modules)
        else:
            produced = (f for module in modules for f in rule.check(module))
        findings.extend(f for f in produced if not _suppressed(f, by_path))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# ---------------------------------------------------------------- baseline
#
# A committed accepted-debt file: findings recorded in it are counted,
# not reported (``repro check``, :mod:`repro.devtools.check`).

BASELINE_VERSION = 1


def finding_key(finding: Finding) -> str:
    """Baseline identity of a finding (stable across line drift)."""
    return f"{finding.rule}|{finding.path}|{finding.message}"


def write_baseline(path: str, findings: Sequence[Finding]) -> None:
    payload = {
        "version": BASELINE_VERSION,
        "findings": sorted({finding_key(f) for f in findings}),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_baseline(path: str) -> set:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise LintError(f"cannot read baseline {path}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("version") != BASELINE_VERSION:
        raise LintError(
            f"baseline {path} is not a version-{BASELINE_VERSION} lint baseline"
        )
    return set(payload.get("findings", []))


def filter_baselined(
    findings: Sequence[Finding], path: str
) -> Tuple[List[Finding], int]:
    """Split findings against a baseline: (new findings, baselined count)."""
    known = load_baseline(path)
    new = [f for f in findings if finding_key(f) not in known]
    return new, len(findings) - len(new)


def record_baseline(path: str, findings: Sequence[Finding]) -> str:
    """Write a baseline and return the human-readable confirmation line."""
    write_baseline(path, findings)
    noun = "finding" if len(findings) == 1 else "findings"
    return f"baseline written: {len(findings)} {noun} recorded in {path}"


# --------------------------------------------------------------- AST helpers


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the canonical dotted origin they were bound from.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from random import Random`` -> ``{"Random": "random.Random"}``;
    ``import os.path`` -> ``{"os": "os"}`` (attribute access goes through
    the top-level binding).  Relative imports are skipped — they never
    reach stdlib modules, which is all callers resolve against.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    aliases[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def qualified_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve ``np.random.default_rng`` -> ``numpy.random.default_rng``.

    Returns ``None`` when the expression does not bottom out in an
    imported (or builtin) name — e.g. a method on a local object.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    return ".".join([root] + list(reversed(parts)))


def local_definitions(tree: ast.Module) -> Set[str]:
    """Names defined by the module itself (defs, classes, assignments)."""
    defined: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                defined.add(node.target.id)
    return defined
