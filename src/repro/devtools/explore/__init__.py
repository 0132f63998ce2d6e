"""Bounded schedule exploration for the event simulator.

``repro explore --scenario churn --budget 200``

The event simulator's default tie-break (FIFO among same-time events) is
one point in a space of legal schedules: any ordering of *co-enabled*
events — same timestamp, plus timestamps within a configurable
commutation window — is a behaviour a real deployment could exhibit.
This package enumerates that space up to a schedule budget, runs the
system's own invariant audit plus route-delivery oracles at quiescence,
and reports any ordering that breaks them as a replayable
counterexample.

Pieces:

* :mod:`.policy` — :class:`PlanPolicy`, a
  :class:`~repro.netsim.eventsim.SchedulePolicy` that replays a *plan*
  (a list of frontier indices) and falls back to FIFO beyond it.
* :mod:`.independence` — a DPOR-style independence relation computed
  statically from the flow analysis' per-callback effect sets
  (:func:`repro.devtools.flow.analysis.project_effect_sets`): events
  whose effect sets are disjoint commute and are never reordered.
* :mod:`.scenarios` — deterministic ``churn`` / ``join`` / ``divert``
  deployments built for exploration.
* :mod:`.oracles` — the quiescence checks (invariant audit with
  ``check_overlay=True``, misdelivery, lost messages, routing errors).
* :mod:`.explorer` — the bounded search itself, decision-string replay,
  delta-debugging minimization, and the ``repro explore`` command.
"""

from .explorer import (
    Counterexample,
    ExplorationResult,
    Explorer,
    format_decisions,
    minimize_plan,
    parse_decisions,
)
from .independence import IndependenceOracle
from .oracles import OracleViolation, check_quiescence
from .policy import PlanPolicy
from .scenarios import SCENARIOS, ScenarioRun

__all__ = [
    "Counterexample",
    "ExplorationResult",
    "Explorer",
    "IndependenceOracle",
    "OracleViolation",
    "PlanPolicy",
    "SCENARIOS",
    "ScenarioRun",
    "check_quiescence",
    "format_decisions",
    "minimize_plan",
    "parse_decisions",
]
