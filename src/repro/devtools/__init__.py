"""Project-specific static analysis for the PAST reproduction.

``repro.devtools`` guards the *static* half of the repo's reproducibility
story: the runtime invariants of §3 live in ``repro.core.invariants``,
while the rules here catch the ways a refactor can silently break
determinism (unseeded RNGs, wall-clock reads, builtin-``hash`` seed
derivation), simulation purity (threads, sockets, file I/O inside the
simulator), layering (cross-layer imports), protocol completeness
(request messages without handlers), concurrency hazards across the
Transport seam (:mod:`.conc`) and payloads the wire cannot ship
(:mod:`.wire`).

Run every catalogue at once as::

    python -m repro check

See ``README.md`` for the rule catalogue and suppression syntax.
"""

from .framework import (
    Finding,
    LintError,
    ModuleInfo,
    ProjectRule,
    Rule,
    collect_modules,
    module_from_source,
    run_rules,
)
from .rules import all_rules

__all__ = [
    "Finding",
    "LintError",
    "ModuleInfo",
    "ProjectRule",
    "Rule",
    "all_rules",
    "collect_modules",
    "module_from_source",
    "run_rules",
]
