"""Tests for the command-line interface."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in COMMANDS:
            args = parser.parse_args([command])
            assert args.command == command

    def test_defaults(self):
        args = build_parser().parse_args(["baseline"])
        assert args.nodes == 100
        assert args.scale == 0.25
        assert args.seed == 42

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tableau"])

    def test_scale_flags(self):
        args = build_parser().parse_args(
            ["table2", "--nodes", "50", "--scale", "0.1", "--seed", "7"]
        )
        assert (args.nodes, args.scale, args.seed) == (50, 0.1, 7)


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "figure8" in out

    def test_baseline_tiny(self, capsys):
        rc = main(["baseline", "--nodes", "25", "--scale", "0.05", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "insert failures %" in out
        assert "paper" in out

    def test_figure5_tiny(self, capsys):
        rc = main(["figure5", "--nodes", "25", "--scale", "0.05", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "diverted replica ratio" in out

    def test_availability_tiny(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.experiments import churn

        original = churn.run_availability_sweep

        def tiny_sweep(n_nodes, capacity_scale, seed):
            return original(
                k_values=[1], fail_fractions=[0.2],
                n_nodes=20, capacity_scale=0.1, n_files=40, seed=seed,
            )

        monkeypatch.setattr(churn, "run_availability_sweep", tiny_sweep)
        rc = main(["availability", "--nodes", "20", "--scale", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "available %" in out


class TestFigureCommands:
    """Exercise the remaining figure commands at miniature scale."""

    def test_figure4_tiny(self, capsys):
        from repro.cli import main

        rc = main(["figure4", "--nodes", "25", "--scale", "0.05", "--seed", "3"])
        assert rc == 0
        assert "redirect" in capsys.readouterr().out

    def test_figure6_tiny(self, capsys):
        from repro.cli import main

        rc = main(["figure6", "--nodes", "25", "--scale", "0.05", "--seed", "3"])
        assert rc == 0
        assert "failed" in capsys.readouterr().out

    def test_table3_tiny(self, capsys):
        from repro.cli import main

        rc = main(["table3", "--nodes", "25", "--scale", "0.05", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "t_pri" in out and "Figure 2" in out


class TestPackaging:
    """Every advertised front door exists: a console script or a CI
    ``python -m`` whose module was deleted fails here, not at install."""

    ROOT = Path(__file__).resolve().parents[1]

    def test_console_scripts_import_and_are_callable(self):
        text = (self.ROOT / "pyproject.toml").read_text()
        section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        targets = re.findall(r'^[\w-]+ = "([\w.]+):(\w+)"$', section, re.M)
        assert len(targets) == len(section.strip().splitlines()) > 0
        for module, attr in targets:
            assert callable(getattr(importlib.import_module(module), attr))

    def test_ci_module_invocations_resolve(self):
        ci = (self.ROOT / ".github" / "workflows" / "ci.yml").read_text()
        modules = set(re.findall(r"python -m (repro[\w.]*)", ci))
        assert modules
        for module in sorted(modules):
            assert importlib.util.find_spec(module) is not None, module
