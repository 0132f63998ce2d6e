"""Framework behaviour: module loading, suppressions, engine, front door."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools import (
    Finding,
    LintError,
    Rule,
    all_rules,
    collect_modules,
    module_from_source,
    run_rules,
)
from repro.devtools.framework import import_base, imported_names, qualified_name
from repro.devtools.rules import LayeringRule

REPO_ROOT = Path(__file__).resolve().parents[2]


class NameCallRule(Rule):
    """Test double: flags every call to a configurable bare name."""

    def __init__(self, target: str = "forbidden", rule_name: str = "name-call"):
        self.target = target
        self.name = rule_name

    def check(self, module):
        import ast

        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == self.target
            ):
                yield self.finding(module, node, f"call to {self.target}")


class TestModuleLoading:
    def test_collect_modules_walks_directories(self, tmp_path):
        pkg = tmp_path / "repro" / "sub"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("x = 1\n")
        modules = collect_modules([tmp_path])
        names = {m.name for m in modules}
        assert names == {"repro.sub", "repro.sub.mod"}

    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="no such file"):
            collect_modules(["/nonexistent/dir"])

    def test_syntax_error_raises(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(LintError, match="syntax error"):
            collect_modules([bad])

    def test_package_and_subpackage_resolution(self):
        mod = module_from_source("x = 1\n", name="repro.core.network", path="network.py")
        assert mod.package == "repro.core"
        assert mod.subpackage == "core"
        init = module_from_source("", name="repro.core", path="src/repro/core/__init__.py")
        assert init.package == "repro.core"


class TestSuppressions:
    def test_plain_ignore_suppresses_all_rules(self):
        mod = module_from_source("forbidden()  # lint: ignore\n")
        assert run_rules([mod], [NameCallRule()]) == []

    def test_named_ignore_suppresses_only_that_rule(self):
        mod = module_from_source("forbidden()  # lint: ignore[name-call]\n")
        assert run_rules([mod], [NameCallRule()]) == []
        other = module_from_source("forbidden()  # lint: ignore[other-rule]\n")
        assert len(run_rules([other], [NameCallRule()])) == 1

    def test_ignore_applies_only_to_its_line(self):
        mod = module_from_source("forbidden()  # lint: ignore\nforbidden()\n")
        findings = run_rules([mod], [NameCallRule()])
        assert [f.line for f in findings] == [2]


class TestEngine:
    def test_findings_sorted_by_location(self):
        mod = module_from_source("b()\na()\n", path="m.py")
        findings = run_rules(
            [mod], [NameCallRule("a", "rule-a"), NameCallRule("b", "rule-b")]
        )
        assert [(f.line, f.rule) for f in findings] == [(1, "rule-b"), (2, "rule-a")]

    def test_finding_serialization(self):
        finding = Finding(rule="r", path="p.py", line=3, message="m")
        assert finding.to_dict() == {"rule": "r", "path": "p.py", "line": 3, "message": "m"}
        assert finding.render() == "p.py:3: [r] m"

    def test_qualified_name_resolves_aliases(self):
        mod = module_from_source("import numpy as np\nnp.random.default_rng(3)\n")
        call = mod.tree.body[1].value
        assert qualified_name(call.func, mod.aliases) == "numpy.random.default_rng"


#: One row per import form, read from ``repro.netsim.sub.mod`` (package
#: ``repro.netsim.sub``): the statement, its absolute base, the absolute
#: name of each alias (what ``conc-seam`` matches), the alias map, and
#: the targets ``layering`` reports (netsim may import no other layer).
IMPORT_FORMS = [
    ("import repro.core.node", "", ["repro.core.node"],
     {"repro": "repro"}, ["repro.core.node"]),
    ("import repro.core.node as rn", "", ["repro.core.node"],
     {"rn": "repro.core.node"}, ["repro.core.node"]),
    ("from repro.core import audit", "repro.core", ["repro.core.audit"],
     {"audit": "repro.core.audit"}, ["repro.core"]),
    ("from . import x, y", "repro.netsim.sub",
     ["repro.netsim.sub.x", "repro.netsim.sub.y"],
     {"x": "repro.netsim.sub.x", "y": "repro.netsim.sub.y"}, []),
    ("from .m import x", "repro.netsim.sub.m", ["repro.netsim.sub.m.x"],
     {"x": "repro.netsim.sub.m.x"}, []),
    ("from ..m import x as y", "repro.netsim.m", ["repro.netsim.m.x"],
     {"y": "repro.netsim.m.x"}, []),
    ("from ... import core", "repro", ["repro.core"],
     {"core": "repro.core"}, ["repro.core"]),
    # Four levels and more climb above ``repro``: such an import cannot
    # run, so it binds nothing.
    ("from .... import x", None, [], {}, []),
    ("from ..... import x", None, [], {}, []),
]


class TestImportResolver:
    """:func:`import_base` is the one resolver; layering, conc-seam and
    the alias map every rule reads all derive their targets from it."""

    @pytest.mark.parametrize(
        "source,base,names,aliases,layering", IMPORT_FORMS,
        ids=[row[0] for row in IMPORT_FORMS],
    )
    def test_each_import_form(self, source, base, names, aliases, layering):
        mod = module_from_source(source + "\n", name="repro.netsim.sub.mod", path="mod.py")
        node = mod.tree.body[0]
        assert import_base(mod, node) == base
        assert imported_names(mod, node) == names
        assert mod.aliases == aliases
        reported = [
            f.message.split("(imported '", 1)[1].split("'", 1)[0]
            for f in LayeringRule().check(mod)
        ]
        assert reported == layering


def _only(*names):
    """The named rules of the catalogue: a library caller's selection."""
    return [rule for rule in all_rules() if rule.name in names]


class TestCli:
    """``repro check`` on single files; the selection tests run a subset
    of :func:`all_rules` through the engine."""

    def _run(self, *argv):
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", "check", *argv],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
        )

    def _dirty(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n\nrng = random.Random()\n")
        return collect_modules([dirty])

    def test_clean_file_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("import random\n\nrng = random.Random(7)\n")
        proc = self._run(str(clean))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout

    def test_dirty_file_exits_one_with_json(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n\nrng = random.Random()\n")
        proc = self._run(str(dirty), "--json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "unseeded-random"
        assert payload["findings"][0]["line"] == 3

    def test_usage_error_exits_two(self):
        proc = self._run("no/such/dir")
        assert proc.returncode == 2
        assert "no such file" in proc.stderr

    def test_select_runs_only_named_rules(self, tmp_path):
        assert run_rules(self._dirty(tmp_path), _only("builtin-hash")) == []

    def test_select_multiple_rules(self, tmp_path):
        findings = run_rules(
            self._dirty(tmp_path), _only("builtin-hash", "unseeded-random")
        )
        assert [f.rule for f in findings] == ["unseeded-random"]

    def test_ignore_skips_named_rule(self, tmp_path):
        rest = [rule for rule in all_rules() if rule.name != "unseeded-random"]
        assert run_rules(self._dirty(tmp_path), rest) == []
