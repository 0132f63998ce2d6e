"""Tests for the concurrency-readiness analyzer (the conc catalogue).

Planted fixtures: a check-then-act-across-RPC mutant the atomicity
analysis MUST flag, its confirm-reread rewrite that must pass clean
(the shape every concurrency fix in this repo follows), blocking and
seam-conformance mutants, plus the real-tree gates — the committed
baseline covers every finding and holds nothing else, the engine-pure
modules have no seam or blocking finding, and the repaired production
paths stay clean.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools import check, collect_modules, module_from_source, run_rules
from repro.devtools.conc import (
    CONC_RULE_NAMES,
    ENGINE_PURE_MODULES,
    conc_rules,
    get_conc_analysis,
)
from repro.devtools.conc.analysis import ConcAnalysis
from repro.devtools.framework import finding_key, load_baseline
from repro.devtools.rules import all_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "benchmarks" / "conc_baseline.json"


def analyze(source, name="repro.core.fixture"):
    module = module_from_source(source, name=name, path="fixture.py")
    return run_rules([module], conc_rules())


def rules_of(findings):
    return [f.rule for f in findings]


# The canonical mutant: the claim is checked before the RPC and acted on
# after it, so a concurrent claim that lands while the send is in flight
# is silently overwritten.
PLANTED_MUTANT = """\
class Directory:
    def __init__(self, transport):
        self.transport = transport
        self.entries = {}

    def claim(self, node_id, key):
        owner = self.entries.get(key)
        if owner is not None:
            return owner
        delivered, _ = self.transport.send(node_id, 0, None)
        if not delivered:
            return None
        self.entries[key] = node_id
        return node_id
"""

# The repair this repo's production fixes follow: re-read the structure
# in test position after the suspension, before writing.
PLANTED_FIXED = """\
class Directory:
    def __init__(self, transport):
        self.transport = transport
        self.entries = {}

    def claim(self, node_id, key):
        owner = self.entries.get(key)
        if owner is not None:
            return owner
        delivered, _ = self.transport.send(node_id, 0, None)
        if not delivered:
            return None
        if key in self.entries:
            return self.entries[key]
        self.entries[key] = node_id
        return node_id
"""


class TestAtomicity:
    def test_check_then_act_mutant_is_flagged(self):
        findings = analyze(PLANTED_MUTANT)
        assert "conc-atomicity" in rules_of(findings)
        (finding,) = [f for f in findings if f.rule == "conc-atomicity"]
        assert "self.entries" in finding.message
        assert "Directory.claim" in finding.message

    def test_confirm_reread_rewrite_is_clean(self):
        assert analyze(PLANTED_FIXED) == []

    def test_binding_the_stale_value_does_not_confirm(self):
        # Branching on a local bound BEFORE the suspension proves nothing
        # about the post-suspension world: still flagged.
        source = PLANTED_MUTANT.replace(
            "        if not delivered:\n",
            "        if not delivered or owner is not None:\n",
        )
        findings = analyze(source)
        assert "conc-atomicity" in rules_of(findings)

    def test_counter_increments_are_exempt(self):
        source = """\
class Meter:
    def __init__(self, transport):
        self.transport = transport
        self.sent = 0

    def ping(self):
        if self.sent > 100:
            return False
        self.transport.send(0, 1, None)
        self.sent += 1
        return True
"""
        assert analyze(source) == []

    def test_message_contains_no_line_numbers(self):
        (finding,) = analyze(PLANTED_MUTANT)
        assert not any(ch.isdigit() for ch in finding.message)

    def test_loop_wraparound_hazard_is_caught(self):
        # The read happens at the TOP of the next iteration, after the
        # previous iteration's suspension: only visible with the loop
        # body scanned twice.
        source = """\
class Batcher:
    def __init__(self, transport):
        self.transport = transport
        self.pending = {}

    def flush(self, items):
        for item in items:
            if item in self.pending:
                continue
            self.transport.send(0, item, None)
            self.pending[item] = True
"""
        findings = analyze(source)
        assert "conc-atomicity" in rules_of(findings)


class TestBlocking:
    def test_wall_clock_sleep_is_flagged(self):
        source = "import time\n\ndef wait():\n    time.sleep(0.5)\n"
        findings = analyze(source)
        assert rules_of(findings) == ["conc-blocking"]
        assert "time.sleep" in findings[0].message

    def test_busy_wait_without_exit_is_flagged(self):
        source = "def spin(flag):\n    while True:\n        flag.check()\n"
        findings = analyze(source)
        assert rules_of(findings) == ["conc-blocking"]
        assert "busy-wait" in findings[0].message

    def test_loop_with_break_is_clean(self):
        source = (
            "def drain(queue):\n"
            "    while True:\n"
            "        if not queue:\n"
            "            break\n"
            "        queue.pop()\n"
        )
        assert analyze(source) == []

    def test_file_io_flagged_only_in_engine_packages(self):
        source = "def load(path):\n    return open(path).read()\n"
        engine = analyze(source, name="repro.core.fixture")
        assert rules_of(engine) == ["conc-blocking"]
        harness = analyze(source, name="repro.workloads.fixture")
        assert harness == []


class TestReentrancy:
    def test_mutating_suspending_cycle_is_flagged(self):
        source = """\
class Router:
    def route(self, transport, msg):
        self.pending.append(msg)
        transport.send(0, 1, None)
        self.forward(transport, msg)

    def forward(self, transport, msg):
        if msg:
            self.route(transport, msg - 1)
"""
        findings = analyze(source)
        assert "conc-reentrancy" in rules_of(findings)
        (finding,) = [f for f in findings if f.rule == "conc-reentrancy"]
        assert "Router.route" in finding.message

    def test_non_suspending_recursion_is_not_flagged(self):
        # Run-to-completion recursion cannot interleave with itself.
        source = """\
class Walker:
    def visit(self, node):
        self.seen.append(node)
        self.descend(node)

    def descend(self, node):
        for child in node.children:
            self.visit(child)
"""
        findings = analyze(source)
        assert "conc-reentrancy" not in rules_of(findings)


class TestSeam:
    ENGINE = "repro.pastry.keepalive"

    def test_runtime_simulator_import_is_flagged(self):
        source = "from ..netsim.eventsim import EventSimulator\n"
        findings = analyze(source, name=self.ENGINE)
        assert rules_of(findings) == ["conc-seam"]

    def test_type_checking_import_is_fine(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from ..netsim.eventsim import PeriodicTimer\n"
        )
        assert analyze(source, name=self.ENGINE) == []

    def test_raw_sim_scheduling_is_flagged(self):
        source = (
            "class M:\n"
            "    def watch(self):\n"
            "        self.sim.schedule(1.0, self.fire)\n"
        )
        findings = analyze(source, name=self.ENGINE)
        assert rules_of(findings) == ["conc-seam"]
        assert "schedule" in findings[0].message

    def test_transport_scheduling_is_fine(self):
        source = (
            "class M:\n"
            "    def watch(self):\n"
            "        self.transport.schedule(1.0, self.fire)\n"
            "        self.transport.every(1.0, self.fire)\n"
            "        t = self.transport.now()\n"
        )
        assert analyze(source, name=self.ENGINE) == []

    def test_raw_sim_clock_read_is_flagged(self):
        source = (
            "class M:\n"
            "    def stamp(self):\n"
            "        return self.sim.now\n"
        )
        findings = analyze(source, name=self.ENGINE)
        assert rules_of(findings) == ["conc-seam"]
        assert ".sim.now" in findings[0].message

    def test_sub_seam_primitives_are_flagged(self):
        source = (
            "class M:\n"
            "    def talk(self, net):\n"
            "        net.stats.record_rpc()\n"
        )
        findings = analyze(source, name=self.ENGINE)
        assert rules_of(findings) == ["conc-seam"]

    def test_non_engine_modules_are_outside_the_seam(self):
        # The emulator itself lives below the seam and may do all of this.
        source = (
            "class M:\n"
            "    def watch(self):\n"
            "        self.sim.schedule(1.0, self.fire)\n"
        )
        assert analyze(source, name="repro.netsim.fixture") == []


@pytest.fixture(scope="module")
def real_tree(request):
    os.chdir(REPO_ROOT)
    modules = collect_modules(["src"])
    findings = run_rules(modules, conc_rules())
    analysis = get_conc_analysis(modules)
    return modules, findings, analysis


class TestRealTree:
    def test_every_finding_is_baselined_and_no_suppressions(self, real_tree):
        modules, findings, _ = real_tree
        known = load_baseline(str(BASELINE))
        new = [f for f in findings if finding_key(f) not in known]
        rendered = "\n".join(f.render() for f in new)
        assert not new, f"non-baselined conc findings:\n{rendered}"
        for module in modules:
            for names in module.suppressions.values():
                if names is None:
                    continue
                assert not any(n.startswith("conc-") for n in names), (
                    f"conc suppression comment in {module.path}; use the "
                    "baseline, not inline suppressions"
                )

    def test_baseline_holds_no_stale_entry(self, real_tree):
        """The converse: an entry whose finding is gone must leave the file.

        ``--baseline`` ignores entries that match nothing, so without
        this the accepted debt could never be seen to shrink.
        """
        _modules, findings, _ = real_tree
        stale = load_baseline(str(BASELINE)) - {finding_key(f) for f in findings}
        assert not stale, "stale conc baseline entries:\n" + "\n".join(sorted(stale))

    def test_baseline_holds_only_conc_debt(self):
        """One baseline, and only atomicity / reentrancy / blocking debt
        in it: lint, wire and ``conc-seam`` findings stay zero-tolerance."""
        rules = {key.split("|", 1)[0] for key in load_baseline(str(BASELINE))}
        assert rules <= {"conc-atomicity", "conc-reentrancy", "conc-blocking"}

    def test_engine_pure_modules_are_never_blocked(self, real_tree):
        """No seam or blocking finding in an engine-pure module."""
        modules, findings, _ = real_tree
        pure = {m.path for m in modules if m.name in ENGINE_PURE_MODULES}
        assert len(pure) == len(ENGINE_PURE_MODULES)
        blocked = [
            f.render() for f in findings
            if f.path in pure and f.rule in ("conc-seam", "conc-blocking")
        ]
        assert not blocked, "\n".join(blocked)

    def test_seam_conformance_is_unconditionally_clean(self, real_tree):
        _modules, findings, _ = real_tree
        seam = [f for f in findings if f.rule == "conc-seam"]
        rendered = "\n".join(f.render() for f in seam)
        assert not seam, f"transport-seam violations:\n{rendered}"

    def test_repaired_production_paths_are_clean(self, real_tree):
        """The three shipped concurrency fixes must analyze clean.

        * ``KeepAliveMonitor._probe_round`` re-reads the clock per probe
          and re-checks ``last_heard``/``_timers`` before every write;
        * ``PastNode.read_repair`` confirm-rereads its own replica after
          the donor search;
        * ``AntiEntropyScrubber._exchange_digests`` re-checks
          ``references_file`` before requesting repair.
        """
        _modules, _findings, analysis = real_tree
        assert not [h for h in analysis.hazards if "KeepAliveMonitor" in h.qualname]
        assert not [h for h in analysis.hazards if "read_repair" in h.qualname]
        exchange = [
            h for h in analysis.hazards
            if h.qualname.endswith("_exchange_digests")
        ]
        assert not [h for h in exchange if h.key.split(".")[0] == "node"]

    def test_keepalive_module_is_fully_ready(self, real_tree):
        modules, findings, _ = real_tree
        (path,) = [m.path for m in modules if m.name == "repro.pastry.keepalive"]
        assert not [f for f in findings if f.path == path]


class TestDeterminism:
    def test_report_is_byte_identical_across_hash_seeds(self, check_reports_across_hash_seeds):
        first, second = check_reports_across_hash_seeds
        assert first == second

    def test_hazard_order_is_stable(self, real_tree):
        _modules, _findings, analysis = real_tree
        keys = [(h.path, h.line, h.key, h.qualname) for h in analysis.hazards]
        assert keys == sorted(keys)


class TestCli:
    def test_write_then_gate_round_trip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        monkeypatch.setattr(check, "BASELINE_PATH", tmp_path / "conc.json")
        assert main(["check", "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out
        assert load_baseline(str(tmp_path / "conc.json")) == load_baseline(str(BASELINE))


class TestRegistry:
    def test_conc_rules_not_in_default_set(self):
        default_names = {rule.name for rule in all_rules()}
        assert not default_names & set(CONC_RULE_NAMES)

    def test_analysis_cache_is_identity_keyed(self):
        module = module_from_source(PLANTED_MUTANT, name="repro.core.fx")
        first = get_conc_analysis([module])
        assert get_conc_analysis([module]) is first
        other = module_from_source(PLANTED_MUTANT, name="repro.core.fx")
        assert get_conc_analysis([other]) is not first

    def test_direct_analysis_reports_suspension_closure(self):
        module = module_from_source(PLANTED_MUTANT, name="repro.core.fx")
        analysis = ConcAnalysis([module])
        assert analysis.function_suspends("repro.core.fx.Directory.claim")
        assert not analysis.function_suspends("repro.core.fx.Directory.__init__")
