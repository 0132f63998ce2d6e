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
    collect_modules,
    module_from_source,
    run_rules,
)
from repro.devtools.framework import import_aliases, qualified_name
from repro.devtools.rules import get_rules

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

    def test_get_rules_unknown_name(self):
        # "perf-hot-sort" was a rule until its catalogue was deleted.
        for name in ("no-such-rule", "perf-hot-sort"):
            with pytest.raises(LintError, match="unknown rule"):
                get_rules([name])

    def test_qualified_name_resolves_aliases(self):
        import ast

        tree = ast.parse("import numpy as np\nnp.random.default_rng(3)\n")
        aliases = import_aliases(tree)
        call = tree.body[1].value
        assert qualified_name(call.func, aliases) == "numpy.random.default_rng"


class TestCli:
    """``repro check`` on single files; the selection tests pin
    :func:`get_rules`, which resolves rule names for library callers."""

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
        assert run_rules(self._dirty(tmp_path), get_rules(["builtin-hash"])) == []

    def test_select_multiple_rules(self, tmp_path):
        findings = run_rules(
            self._dirty(tmp_path), get_rules(["builtin-hash", "unseeded-random"])
        )
        assert [f.rule for f in findings] == ["unseeded-random"]

    def test_ignore_skips_named_rule(self, tmp_path):
        assert run_rules(self._dirty(tmp_path), get_rules(ignore=["unseeded-random"])) == []

    def test_ignore_composes_with_select(self, tmp_path):
        rules = get_rules(
            ["unseeded-random", "builtin-hash"], ignore=["unseeded-random"]
        )
        assert [rule.name for rule in rules] == ["builtin-hash"]
        assert run_rules(self._dirty(tmp_path), rules) == []

    def test_get_rules_ignore_api(self):
        from repro.devtools.rules import all_rules

        names = {rule.name for rule in get_rules(ignore=["flow-shared-state"])}
        assert "flow-shared-state" not in names
        assert len(names) == len(all_rules()) - 1
        with pytest.raises(LintError):
            get_rules(ignore=["nope"])
