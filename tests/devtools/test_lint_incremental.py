"""Tests for the committed accepted-debt baseline of ``repro check``."""

import json

import pytest

from repro.cli import main
from repro.devtools import check
from repro.devtools.framework import Finding, LintError, finding_key, load_baseline, write_baseline

BAD_SOURCE = "import random\nr = random.Random()\n"


@pytest.fixture
def tree(tmp_path, monkeypatch):
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    monkeypatch.setattr(check, "BASELINE_PATH", tmp_path / "baseline.json")
    return tmp_path


class TestBaseline:
    def test_write_then_suppress(self, tree, capsys):
        assert main(["check", str(tree), "--write-baseline"]) == 0
        out = capsys.readouterr().out
        assert "1 finding" in out
        # The recorded finding no longer fails the run...
        assert main(["check", str(tree)]) == 0
        # ...but a new one does, and is the only one reported.
        (tree / "worse.py").write_text(BAD_SOURCE)
        assert main(["check", str(tree)]) == 1
        out = capsys.readouterr().out
        assert "worse.py" in out and "bad.py" not in out

    def test_baseline_survives_line_drift(self, tree):
        main(["check", str(tree), "--write-baseline"])
        # Shift the offending line down; the finding identity is
        # line-number-free, so it stays suppressed.
        (tree / "bad.py").write_text("# a comment\n\n" + BAD_SOURCE)
        assert main(["check", str(tree)]) == 0

    def test_finding_key_ignores_line(self):
        a = Finding("rule", "p.py", 3, "msg")
        b = Finding("rule", "p.py", 99, "msg")
        assert finding_key(a) == finding_key(b)

    def test_roundtrip_helpers(self, tmp_path):
        path = tmp_path / "b.json"
        write_baseline(str(path), [Finding("r", "p.py", 1, "m")])
        assert load_baseline(str(path)) == {"r|p.py|m"}

    def test_unreadable_baseline_is_usage_error(self, tree):
        # The fixture's baseline has not been written: nothing to read.
        assert main(["check", str(tree)]) == 2

    def test_wrong_version_is_usage_error(self, tree):
        bad = tree / "bad-baseline.json"
        bad.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(LintError):
            load_baseline(str(bad))
