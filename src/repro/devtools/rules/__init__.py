"""Rule registry: every lint rule shipped with ``repro.devtools``."""

from __future__ import annotations

from typing import List

from ..framework import Rule
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
]
