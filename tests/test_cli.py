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

    @pytest.mark.parametrize(
        "flag", [["--chaos"], ["--data-dir", "x"], ["--workers", "9"],
                 ["--files", "3"], ["--differential"], ["--out", "f"]],
    )
    def test_serve_only_flags_rejected_elsewhere(self, flag):
        parser = build_parser()
        assert parser.parse_args(["serve", *flag]).command == "serve"
        for command in ("table2", "chaos", "list", "check"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, *flag])

    @pytest.mark.parametrize("argv", [
        ["list", "--nodes", "5"],
        ["chaos", "--scale", "3"],
        ["chaos", "--nodes", "9"],
        ["serve", "--scale", "7"],
        ["serve", "--chaos", "--nodes", "4"],
        ["serve", "--chaos", "--files", "2", "--workers", "9", "--differential"],
        ["check", "--seed", "1"],
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_chaos_keeps_the_flags_it_reads(self):
        args = build_parser().parse_args(["serve", "--chaos", "--seed", "3", "--out", "f"])
        assert (args.chaos, args.seed, args.out) == (True, 3, "f")


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "figure8" in out

    def test_list_states_what_a_row_fixes(self, capsys):
        """A flag a row ignores is stated by ``list``, not silently dropped."""
        assert main(["list"]) == 0
        lines = {ln.split()[0]: ln for ln in capsys.readouterr().out.splitlines()[1:]}
        assert "--scale ignored" in lines["locality"]
        assert "--seed ignored" in lines["pastry_routing"]
        assert "--nodes and --scale ignored" in lines["ablation_erasure"]
        assert "ignored" not in lines["table2"]

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

        def tiny_sweep(n_nodes, capacity_scale, seed, **kwargs):
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


class TestServeExitStatus:
    """``repro serve`` reports a failed run through its exit status, not
    only on screen: CI steps and scripts read the status."""

    BENCH = {
        "ops": 8, "nodes": 4, "workers": 1, "checksum": "c0ffee",
        "lookup_failures": 0, "audit_violations": 0,
        "timing": {"ops_per_sec": 1.0, "wall_s": 1.0, "peak_rss_kb": 1},
    }

    def serve(self, monkeypatch, *flags, **bench):
        from repro.net import differential

        monkeypatch.setattr(
            differential, "run_serve", lambda **kw: {**self.BENCH, **bench}
        )
        return main(["serve", "--nodes", "4", *flags])

    def test_clean_serve_exits_zero(self, monkeypatch, capsys):
        assert self.serve(monkeypatch) == 0
        assert "outcome checksum: c0ffee" in capsys.readouterr().out

    @pytest.mark.parametrize("field", ["lookup_failures", "audit_violations"])
    def test_failed_lookup_or_audit_violation_exits_one(
        self, field, monkeypatch, capsys
    ):
        assert self.serve(monkeypatch, **{field: 1}) == 1
        assert "outcome checksum: c0ffee" in capsys.readouterr().out

    def test_differential_mismatch_exits_one_without_serving(
        self, monkeypatch, capsys
    ):
        from repro.net import differential

        monkeypatch.setattr(
            differential, "run_differential",
            lambda **kw: {"equal": False, "sim": "aa", "asyncio": "bb"},
        )
        assert self.serve(monkeypatch, "--differential") == 1
        out = capsys.readouterr().out
        assert "differential oracle: MISMATCH" in out
        assert "outcome checksum" not in out

    def test_failed_chaos_oracle_exits_one(self, monkeypatch, capsys):
        from repro.experiments import live_chaos

        failed = live_chaos.LiveChaosReport(
            scenario="live-chaos", seed=1, nodes=4, files=2, rounds=1,
            lost_files=1, lost_file_ids=["0xdead"],
        )
        monkeypatch.setattr(live_chaos, "run_live_sweep", lambda seed: failed)
        assert main(["serve", "--chaos"]) == 1
        assert "FAIL: files unretrievable after heal: 0xdead" in (
            capsys.readouterr().out
        )


class TestPackaging:
    """Every advertised front door exists: a console script or a CI
    ``python -m`` whose module was deleted fails here, not at install."""

    ROOT = Path(__file__).resolve().parents[1]

    def test_console_scripts_import_and_are_callable(self):
        """One console script, ``repro``; the explorer and the sanitizer
        keep their ``python -m`` doors."""
        text = (self.ROOT / "pyproject.toml").read_text()
        section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert section.strip().splitlines() == ['repro = "repro.cli:main"']
        assert callable(importlib.import_module("repro.cli").main)

    def test_ci_module_invocations_resolve(self):
        ci = (self.ROOT / ".github" / "workflows" / "ci.yml").read_text()
        modules = set(re.findall(r"python -m (repro[\w.]*)", ci))
        assert modules
        for module in sorted(modules):
            assert importlib.util.find_spec(module) is not None, module
