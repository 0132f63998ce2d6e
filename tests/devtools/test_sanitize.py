"""The schedule-trace sanitizer: divergence search and the CLI harness.

The two end-to-end tests each spawn two child interpreters with
different ``PYTHONHASHSEED`` values — they are the acceptance criteria
of the sanitizer: the shipped churn scenario must be hashseed-
independent, and the injected set-iteration hazard must be localised to
its first divergent event.
"""

from __future__ import annotations

from repro.cli import main
from repro.devtools.sanitize import (
    SCENARIOS,
    emit_trace,
    first_divergence,
    scenario_hazard,
)
from repro.netsim.trace import ScheduleTrace


class TestFirstDivergence:
    def test_identical_traces_return_none(self):
        digests = ["a", "b", "c"]
        assert first_divergence(digests, list(digests)) is None

    def test_empty_traces_are_identical(self):
        assert first_divergence([], []) is None

    def test_divergence_at_first_event(self):
        assert first_divergence(["x", "y"], ["a", "b"]) == 0

    def test_divergence_in_the_middle(self):
        a = ["d0", "d1", "d2x", "d3x", "d4x"]
        b = ["d0", "d1", "d2y", "d3y", "d4y"]
        assert first_divergence(a, b) == 2

    def test_common_prefix_with_extra_events(self):
        a = ["d0", "d1"]
        b = ["d0", "d1", "d2"]
        assert first_divergence(a, b) == 2

    def test_cumulative_digests_from_real_traces(self):
        t1, t2 = ScheduleTrace(), ScheduleTrace()
        for t in (t1, t2):
            t.record_event(1.0, 0, lambda: None)
            t.record_event(2.0, 1, lambda: None)
        t1.record_event(3.0, 2, lambda: None)
        t2.record_event(3.5, 2, lambda: None)
        assert first_divergence(t1.digests, t2.digests) == 2


class TestScenarios:
    def test_scenario_registry(self):
        assert set(SCENARIOS) == {"churn", "scrub", "hazard"}

    def test_hazard_scenario_runs_all_events(self):
        trace = scenario_hazard(seed=1)
        assert len(trace.events) == 25
        assert len(trace.digests) == 25
        assert all(e.callback.startswith("hazard_event[") for e in trace.events)

    def test_trace_digest_is_deterministic_in_process(self):
        # Same interpreter, same seed: the digest must be reproducible.
        assert scenario_hazard(seed=1).digest() == scenario_hazard(seed=1).digest()


class TestHarness:
    def test_churn_scenario_is_hashseed_independent(self, capsys):
        rc = main(
            ["sanitize", "--scenario", "churn", "--seed", "7", "--hashseeds", "1", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "identical trace digests" in out

    def test_hazard_scenario_is_localised_to_first_divergence(self, capsys):
        rc = main(
            ["sanitize", "--scenario", "hazard", "--seed", "3", "--hashseeds", "1", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "DIVERGE at event" in out
        assert "hazard_event[" in out
        # The report names the scheduling call site of the divergent event.
        assert "sanitize.py:" in out

    def test_emit_trace_prints_json(self, capsys):
        """What each child interpreter prints for the parent to compare."""
        import json

        emit_trace("hazard", 1)
        payload = json.loads(capsys.readouterr().out)
        assert payload["digest"] == payload["digests"][-1]
        assert len(payload["events"]) == len(payload["digests"])
