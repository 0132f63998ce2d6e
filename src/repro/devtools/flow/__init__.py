"""Interprocedural dataflow analysis for the determinism lint suite.

PR 1's per-file rules catch *local* hazards (an unseeded ``Random()``, a
``time.time()`` call).  This package sees across function and module
boundaries: it builds a whole-program function index and call graph
(:mod:`.callgraph`), infers per-function *effects* — schedules events,
consumes an RNG, mutates shared state — and which expressions are
set-typed (:mod:`.analysis`), and then reports iteration-order hazards,
RNG-discipline violations, and shared-mutable-state risks
(:mod:`.rules`).

The rules are registered in :mod:`repro.devtools.rules` and share the
``repro check`` gate and suppressions with the per-file rules.
"""

from __future__ import annotations

from .analysis import (
    EFFECT_MUTATE,
    EFFECT_RNG,
    EFFECT_SCHEDULE,
    FlowAnalysis,
    get_analysis,
)
from .callgraph import FunctionInfo, ProjectIndex, project_aliases
from .rules import (
    FLOW_SUBPACKAGES,
    OrderingHazardRule,
    RngDisciplineRule,
    SharedMutableStateRule,
)

__all__ = [
    "EFFECT_MUTATE",
    "EFFECT_RNG",
    "EFFECT_SCHEDULE",
    "FLOW_SUBPACKAGES",
    "FlowAnalysis",
    "FunctionInfo",
    "OrderingHazardRule",
    "ProjectIndex",
    "RngDisciplineRule",
    "SharedMutableStateRule",
    "get_analysis",
    "project_aliases",
]
