"""Tests for the bounded schedule explorer (repro.devtools.explore)."""

import random
import types

import pytest

from repro.cli import main
from repro.devtools.explore import (
    SCENARIOS,
    Counterexample,
    Explorer,
    IndependenceOracle,
    PlanPolicy,
    check_quiescence,
    format_decisions,
    minimize_plan,
    parse_decisions,
)
from repro.devtools.explore.scenarios import ScenarioRun, scenario_join
from repro.devtools.flow.analysis import (
    EFFECT_MUTATE,
    EFFECT_RNG,
    EFFECT_SCHEDULE,
)
from repro.netsim.eventsim import EventSimulator, PendingEvent
from repro.netsim.trace import ScheduleTrace

# Effect-set injection: an empty map makes every callback "unknown",
# hence dependent on everything — full exploration, and no repo-wide
# flow analysis run per test.
NO_PRUNING = IndependenceOracle(effect_sets={})


# ----------------------------------------------------------- decision strings


class TestDecisionStrings:
    def test_roundtrip(self):
        text = format_decisions(42, [0, 3, 1])
        assert text == "v1:42:0.3.1"
        assert parse_decisions(text) == (42, [0, 3, 1])

    def test_empty_plan(self):
        text = format_decisions(7, [])
        assert text == "v1:7:"
        assert parse_decisions(text) == (7, [])

    @pytest.mark.parametrize("bad", [
        "v2:7:0.1", "v1:7", "v1:x:0", "v1:7:0.-1", "v1:7:0.a", "",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_decisions(bad)


# ------------------------------------------------------------- independence


class TestIndependenceOracle:
    def test_suffix_match_and_disjointness(self):
        oracle = IndependenceOracle(effect_sets={
            "repro.pastry.keepalive.KeepAliveMonitor._probe_round":
                frozenset({EFFECT_MUTATE}),
            "repro.netsim.eventsim.PeriodicTimer._fire":
                frozenset({EFFECT_SCHEDULE}),
        })
        assert oracle.effects_of("KeepAliveMonitor._probe_round") == {EFFECT_MUTATE}
        assert oracle.independent(
            "KeepAliveMonitor._probe_round", "PeriodicTimer._fire"
        )
        assert oracle.dependent(
            "KeepAliveMonitor._probe_round", "KeepAliveMonitor._probe_round"
        )

    def test_unknown_label_is_dependent_on_everything(self):
        oracle = IndependenceOracle(effect_sets={
            "mod.pure": frozenset(),
        })
        assert oracle.effects_of("no.such.callback") == {
            EFFECT_SCHEDULE, EFFECT_RNG, EFFECT_MUTATE,
        }
        # Unknown x unknown: full sets intersect.
        assert oracle.dependent("mystery_a", "mystery_b")
        # A genuinely effect-free callback commutes even with unknowns.
        assert oracle.independent("pure", "mystery_a")

    def test_ambiguous_suffix_unions_effects(self):
        oracle = IndependenceOracle(effect_sets={
            "repro.a.Klass.go": frozenset({EFFECT_RNG}),
            "repro.b.Klass.go": frozenset({EFFECT_MUTATE}),
        })
        assert oracle.effects_of("Klass.go") == {EFFECT_RNG, EFFECT_MUTATE}

    def test_project_effect_sets_resolve_real_callbacks(self):
        # The real flow analysis must know the simulator's own timers:
        # this is what the explorer's pruning is computed from.
        oracle = IndependenceOracle()
        fire = oracle.effects_of("PeriodicTimer._fire")
        assert EFFECT_SCHEDULE in fire
        probe = oracle.effects_of("KeepAliveMonitor._probe_round")
        assert EFFECT_MUTATE in probe


# ------------------------------------------------------------- DPOR pruning


def _decision_trace(labels):
    """A trace with one decision point offering callbacks named ``labels``."""
    trace = ScheduleTrace()

    def make(label):
        def cb():
            pass
        cb.__qualname__ = label
        return cb

    frontier = [
        PendingEvent(1.0, seq, make(label))
        for seq, label in enumerate(labels)
    ]
    trace.record_decision(0, frontier)
    return trace


class TestPruning:
    def test_independent_alternative_is_pruned(self):
        oracle = IndependenceOracle(effect_sets={
            "m.writer": frozenset({EFFECT_MUTATE}),
            "m.pure": frozenset(),
        })
        explorer = Explorer(scenario_join, seed=1, independence=oracle)
        trace = _decision_trace(["writer", "pure", "writer"])
        result = types.SimpleNamespace(pruned=0)
        children = explorer._children([], trace, result)
        # index 1 ("pure") commutes with the writer it overtakes: pruned.
        # index 2 (second "writer") conflicts with index 0's writer: kept.
        assert children == [[2]]
        assert result.pruned == 1

    def test_unknown_callbacks_are_never_pruned(self):
        explorer = Explorer(scenario_join, seed=1, independence=NO_PRUNING)
        trace = _decision_trace(["a", "b", "c"])
        result = types.SimpleNamespace(pruned=0)
        children = explorer._children([], trace, result)
        assert children == [[1], [2]]
        assert result.pruned == 0


# ----------------------------------------------------------------- replay


class TestReplayFidelity:
    def test_empty_plan_matches_unpoliced_run(self):
        plain = SCENARIOS["join"](13)
        policed = SCENARIOS["join"](
            13, policy=PlanPolicy([]), trace=ScheduleTrace()
        )
        assert plain.trace.digests == policed.trace.digests

    @pytest.mark.parametrize("scenario", ["join", "churn", "divert", "scrub"])
    def test_plan_replays_identical_digest_stream(self, scenario):
        explorer = Explorer(
            SCENARIOS[scenario], seed=7, independence=NO_PRUNING
        )
        first = explorer.execute([2])
        again = explorer.replay(format_decisions(7, [2]))
        assert first.trace.digests == again.trace.digests
        assert [d.chosen for d in first.trace.decisions] == \
               [d.chosen for d in again.trace.decisions]

    def test_deviation_changes_the_schedule(self):
        explorer = Explorer(scenario_join, seed=7, independence=NO_PRUNING)
        fifo = explorer.execute([])
        deviated = explorer.execute([1])
        assert fifo.trace.digest() != deviated.trace.digest()


# -------------------------------------------------------------- exploration


class TestExploration:
    def test_unmutated_join_is_clean(self):
        explorer = Explorer(scenario_join, seed=7, independence=NO_PRUNING)
        result = explorer.explore(budget=12)
        assert result.ok
        assert result.schedules_run == 12
        assert result.unique_schedules == 12

    def test_budget_is_respected(self):
        explorer = Explorer(scenario_join, seed=7, independence=NO_PRUNING)
        result = explorer.explore(budget=3)
        assert result.schedules_run == 3


# ------------------------------------------------------------- minimization


class TestMinimizePlan:
    def test_reduces_to_single_relevant_deviation(self):
        runs = []

        def still_fails(plan):
            runs.append(list(plan))
            return len(plan) > 5 and plan[5] == 3

        minimized = minimize_plan(still_fails, [0, 1, 0, 2, 0, 3, 1, 0])
        assert minimized == [0, 0, 0, 0, 0, 3]

    def test_keeps_jointly_required_deviations(self):
        def still_fails(plan):
            padded = list(plan) + [0] * 8
            return padded[1] == 2 and padded[4] == 1

        minimized = minimize_plan(still_fails, [3, 2, 1, 0, 1, 2])
        assert minimized == [0, 2, 0, 0, 1]

    def test_irreproducible_plan_is_returned_stripped(self):
        assert minimize_plan(lambda p: False, [0, 1, 0]) == [0, 1]


# -------------------------------------------------- mutation kill-switch


def _mutant_silent_recovery(seed, policy=None, trace=None):
    """A deployment carrying a reintroduced event-order bug.

    The mutation: a recovering node rejoins the ring *silently* — it
    rebuilds its own leaf set but never announces itself to the members
    (the unmutated ``PastryNetwork.recover_node`` ends with a
    ``member.learn(node_id)`` round).  Under the FIFO schedule this is
    invisible: the recovery event carries an earlier sequence number
    than the keep-alive probes sharing its tick, so it runs first and no
    witness ever detects the crash.  If the explorer runs any same-tick
    probe *before* the recovery, detection fires, the witnesses purge
    the victim, and the silent rejoin leaves the leaf sets asymmetric —
    which the quiescence oracles must catch.
    """
    from repro.core import PastConfig, PastNetwork
    from repro.pastry.keepalive import KeepAliveMonitor

    rng = random.Random(seed)
    config = PastConfig(l=8, k=3, seed=seed, cache_policy="none")
    net = PastNetwork(config)
    net.build([rng.randrange(500_000, 1_000_000) for _ in range(6)])
    owner = net.create_client("mutant")
    node_ids = [n.node_id for n in net.nodes()]
    for i in range(3):
        net.insert(f"m{i}", owner, 10_000, node_ids[i])

    def silent_recover(pastry, node_id):
        # Verbatim PastryNetwork.recover_node, except the final "notify
        # the members of its new leaf set of its presence" round is never
        # sent.  Harmless whenever the members still list the node (no
        # detection ran); fatal when a witness purged it first.
        node = pastry._failed.pop(node_id)
        node.alive = True
        old_members = sorted(node.leafset.members())
        node.leafset = type(node.leafset)(node.node_id, pastry.l)
        for member_id in old_members:
            donor = pastry._nodes.get(member_id)
            if donor is None:
                continue
            node.leafset.add(member_id)
            for m in sorted(donor.leafset.members()):
                if pastry.is_live(m):
                    node.leafset.add(m)
        node.exchange_leafsets()
        pastry._register(node)
        return node

    net.pastry.recover_node = types.MethodType(silent_recover, net.pastry)

    if trace is None:
        trace = ScheduleTrace()
    sim = EventSimulator(trace=trace, policy=policy)
    monitor = KeepAliveMonitor(
        sim, net.pastry, on_detect=net.process_failure_detection,
        interval=1.0, timeout=3.0,
    )
    monitor.start()

    victim = sorted(net.pastry.node_ids)[0]

    def crash():
        if net.pastry.is_live(victim):
            net.crash_node(victim)

    def recover():
        if victim in net._failed_past:
            net.recover_node(victim)
            monitor.forget(victim)
            monitor.watch(victim)

    # Crash off-tick at 2.5; the earliest probe round that can see the
    # silence expire is t=5.0 (last heard 2.0, timeout 3.0) — exactly
    # where the recovery is scheduled.  FIFO runs the recovery first
    # (lower seq); only a reordered schedule detects the crash.
    sim.schedule_at(2.5, crash)
    sim.schedule_at(5.0, recover)
    sim.run_until(9.0)
    monitor.stop()

    from repro.devtools.explore.scenarios import _verify_routes

    run = ScenarioRun(trace=trace, net=net, sim=sim)
    _verify_routes(net, seed, run)
    return run


class TestKillSwitch:
    def test_fifo_schedule_masks_the_mutant(self):
        run = _mutant_silent_recovery(7, policy=PlanPolicy([]))
        assert check_quiescence(run) == []

    def test_explorer_finds_the_seeded_mutation(self):
        explorer = Explorer(
            _mutant_silent_recovery, seed=7, independence=NO_PRUNING
        )
        result = explorer.explore(budget=200)
        assert not result.ok, "explorer failed to find the seeded mutation"
        assert result.schedules_run <= 200
        cex = result.counterexamples[0]
        kinds = {v.kind for v in cex.violations}
        assert any(k.startswith("audit:overlay") for k in kinds) or \
            "misdelivery" in kinds or "routing-error" in kinds

        # The counterexample replays to the identical digest stream.
        seed, plan = parse_decisions(cex.decisions)
        assert seed == 7 and plan == cex.plan
        replayed = explorer.execute(plan)
        assert replayed.trace.digest() == cex.digest
        assert check_quiescence(replayed) != []

        # Delta debugging keeps it failing and no larger than the original.
        minimized = explorer.minimize(cex, budget=32)
        _, min_plan = parse_decisions(minimized)
        assert len(min_plan) <= len(cex.plan)
        assert check_quiescence(explorer.execute(min_plan)) != []


# --------------------------------------------------------------------- CLI


class TestCLI:
    def test_explore_clean_exit_zero(self, capsys):
        code = main([
            "explore", "--scenario", "join", "--budget", "4", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "no schedule violated" in out

    def test_scrub_scenario_explores_clean(self, capsys):
        """Scrub rounds racing a crash/recovery: every explored schedule
        must still reach the integrity fixpoint (audit oracle clean)."""
        code = main([
            "explore", "--scenario", "scrub", "--budget", "6", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "no schedule violated" in out

    def test_replay_exit_zero_and_digest_printed(self, capsys):
        code = main([
            "explore", "--scenario", "join", "--replay", "v1:7:1", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        import json
        payload = json.loads(out)
        assert payload["decisions"] == "v1:7:1"
        assert payload["violations"] == []
        assert len(payload["digest"]) == 64

    def test_bad_replay_string_is_usage_error(self, capsys):
        assert main(["explore", "--replay", "not-a-decision-string"]) == 2

    def test_nonpositive_budget_is_usage_error(self):
        assert main(["explore", "--budget", "0"]) == 2
