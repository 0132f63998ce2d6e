"""Rule registry: every lint rule shipped with ``repro.devtools``."""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..framework import Rule, resolve_rules
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


#: Stable catalogue used by the CLI for ``--list-rules``.
ALL_RULES: List[Rule] = all_rules()


def get_rules(
    names: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """Resolve ``--select``/``--ignore`` lists to rule instances.

    ``names`` limits the run to the named rules (all rules when None);
    ``ignore`` then removes rules from that selection.  Unknown names in
    either list raise :class:`LintError`.

    The conc catalogue (``conc-*``, see :mod:`repro.devtools.conc`) and
    the wire catalogue (``wire-*``, see :mod:`repro.devtools.wire`) are
    resolvable by name but never part of the default set: their findings
    are tracked against their own committed baseline (conc) or their own
    zero-findings gate (wire), not the correctness gate.
    """
    from ..conc.rules import conc_rules
    from ..wire.rules import wire_rules

    return resolve_rules(
        all_rules(),
        select=names,
        ignore=ignore,
        extra=[*conc_rules(), *wire_rules()],
    )


__all__ = [
    "ALL_RULES",
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
