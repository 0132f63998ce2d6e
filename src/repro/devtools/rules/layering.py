"""Layering rule: enforce the package dependency order of DESIGN.md.

The dependency DAG (low to high)::

    security, netsim, erasure, workloads, analysis   (leaves)
    pastry        -> netsim, security
    core          -> pastry, netsim, security
    client        -> core, erasure, security, pastry, netsim
    devtools      -> netsim, pastry, core   (the sanitize harness drives
                     a scenario; the static rules import nothing)
    experiments   -> core, pastry, netsim, security, workloads,
                     erasure, analysis, client, store, net
                     (the live chaos harness drives the real transport)
    cli / __main__ / top-level repro  (application shell: anything)

An import edge not in this table — ``repro.pastry`` importing
``repro.core``, say — inverts the layering and is flagged at the import
site.  Relative imports are resolved against the importing module's
package, so ``from ..core import audit`` in ``repro.experiments.churn``
counts as a ``core`` edge.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Mapping, Optional

from ..framework import Finding, ModuleInfo, Rule, import_base, imported_names

#: subpackage -> subpackages it may import from (itself is always allowed).
LAYER_DEPS: Mapping[str, FrozenSet[str]] = {
    "security": frozenset(),
    "netsim": frozenset(),
    "erasure": frozenset(),
    "workloads": frozenset(),
    "analysis": frozenset(),
    "devtools": frozenset({"netsim", "pastry", "core"}),
    "pastry": frozenset({"netsim", "security"}),
    # core stays ignorant of repro.store: the durable backend plugs in
    # behind LocalStore's duck-typed hooks, never the other way around.
    "core": frozenset({"pastry", "netsim", "security"}),
    "store": frozenset({"net", "netsim", "security"}),
    "client": frozenset({"core", "erasure", "security", "pastry", "netsim"}),
    # net rides along for the live chaos harness: experiments drive the
    # real transport the same way they drive the simulator.
    "experiments": frozenset(
        {"core", "pastry", "netsim", "security", "workloads", "erasure",
         "analysis", "client", "store", "net"}
    ),
}

#: Top-level application modules exempt from the table (they sit above it).
_APP_MODULES = frozenset({"repro", "repro.cli", "repro.__main__"})


def _target_subpackage(target: str) -> Optional[str]:
    parts = target.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


class LayeringRule(Rule):
    """Flag import edges that violate the package dependency table."""

    name = "layering"
    description = (
        "cross-layer imports must follow DESIGN.md's dependency order "
        "(e.g. repro.pastry and repro.netsim never import repro.core)"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        source_sub = module.subpackage
        if source_sub is None or module.name in _APP_MODULES:
            return
        allowed = LAYER_DEPS.get(source_sub)
        if allowed is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module:
                base = import_base(module, node)
                targets = [] if base is None else [base]
            else:
                # ``import a.b`` and ``from . import x, y`` import modules.
                targets = imported_names(module, node)
            for target in targets:
                target_sub = _target_subpackage(target)
                if target_sub is None or target_sub == source_sub:
                    continue
                if target_sub not in allowed:
                    yield self.finding(
                        module, node,
                        f"repro.{source_sub} must not import repro.{target_sub} "
                        f"(imported {target!r}); allowed dependencies: "
                        f"{', '.join(sorted(allowed)) or 'none'}",
                    )
