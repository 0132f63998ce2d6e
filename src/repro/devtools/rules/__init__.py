"""Rule registry: every lint rule shipped with ``repro.devtools``."""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..framework import LintError, Rule
from ..flow.rules import OrderingHazardRule, RngDisciplineRule, SharedMutableStateRule
from .determinism import BuiltinHashRule, GlobalRandomRule, UnseededRandomRule, WallClockRule
from .layering import LayeringRule
from .protocol import ProtocolCompletenessRule
from .purity import SimPurityRule


def all_rules() -> List[Rule]:
    """Fresh instances of the full rule set, in report order."""
    return [
        UnseededRandomRule(),
        GlobalRandomRule(),
        WallClockRule(),
        BuiltinHashRule(),
        SimPurityRule(),
        LayeringRule(),
        ProtocolCompletenessRule(),
        OrderingHazardRule(),
        RngDisciplineRule(),
        SharedMutableStateRule(),
    ]


def get_rules(
    names: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """Resolve rule-name lists to instances of this catalogue.

    ``names`` limits the set to the named rules (all rules when None);
    ``ignore`` then removes rules from that selection.  Unknown names in
    either list raise :class:`LintError`.  The conc and wire catalogues
    are not part of it: ``repro check`` runs all three side by side.
    """
    by_name = {rule.name: rule for rule in all_rules()}

    def lookup(name: str) -> Rule:
        if name not in by_name:
            known = ", ".join(sorted(by_name))
            raise LintError(f"unknown rule {name!r} (known rules: {known})")
        return by_name[name]

    rules = list(by_name.values()) if names is None else [lookup(n) for n in names]
    dropped = {lookup(name).name for name in ignore or ()}
    return [rule for rule in rules if rule.name not in dropped]


__all__ = [
    "BuiltinHashRule",
    "GlobalRandomRule",
    "LayeringRule",
    "OrderingHazardRule",
    "ProtocolCompletenessRule",
    "RngDisciplineRule",
    "SharedMutableStateRule",
    "SimPurityRule",
    "UnseededRandomRule",
    "WallClockRule",
    "all_rules",
    "get_rules",
]
