"""Static independence relation for DPOR-style schedule pruning.

Reordering two co-enabled events can only change behaviour if the
events' callbacks *interfere*.  The interprocedural flow analysis
(:mod:`repro.devtools.flow.analysis`) already computes a per-function
effect summary — "schedules events", "consumes an RNG", "mutates shared
state" — transitively through calls.  Two callbacks whose effect sets
are disjoint commute: neither observes nor perturbs anything the other
touches (both scheduling bumps the seq counter, both RNG draws reorder
the stream, both mutations may race; a lone effect of each kind cannot
collide).  The explorer never reorders an independent pair, which prunes
the schedule tree without losing any distinguishable behaviour.

The relation is deliberately *over*-approximate in the safe direction:
a callback the analysis has no summary for (lambdas, test-local
closures, anything outside ``src/repro``) is assumed to have every
effect, so it is dependent on everything and always explored.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional

from ..flow.analysis import (
    EFFECT_MUTATE,
    EFFECT_RNG,
    EFFECT_SCHEDULE,
    project_effect_sets,
)

ALL_EFFECTS: FrozenSet[str] = frozenset(
    {EFFECT_SCHEDULE, EFFECT_RNG, EFFECT_MUTATE}
)


class IndependenceOracle:
    """Answers "may these two callbacks interfere?" from static effects.

    Keys in the effect-set map are fully dotted qualnames
    (``repro.pastry.keepalive.KeepAliveMonitor._probe_round``) while the
    runtime labels recorded in a schedule trace are bare ``__qualname__``
    strings (``KeepAliveMonitor._probe_round``), so lookup is by suffix
    match.  An ambiguous label (several functions share the suffix)
    unions their effect sets; an unknown label gets the full set.
    """

    def __init__(self, effect_sets: Optional[Mapping[str, FrozenSet[str]]] = None):
        self._by_qual = project_effect_sets() if effect_sets is None else effect_sets
        self._cache: Dict[str, FrozenSet[str]] = {}

    def effects_of(self, label: str) -> FrozenSet[str]:
        cached = self._cache.get(label)
        if cached is not None:
            return cached
        matched: FrozenSet[str] = frozenset()
        hit = False
        suffix = "." + label
        for qual, effects in self._by_qual.items():
            if qual == label or qual.endswith(suffix):
                matched |= effects
                hit = True
        result = matched if hit else ALL_EFFECTS
        self._cache[label] = result
        return result

    def dependent(self, label_a: str, label_b: str) -> bool:
        """True when reordering the two callbacks may change behaviour."""
        return bool(self.effects_of(label_a) & self.effects_of(label_b))

    def independent(self, label_a: str, label_b: str) -> bool:
        return not self.dependent(label_a, label_b)
