"""The interprocedural flow analysis: call graph, effects, and rules.

Every rule is exercised both ways — a snippet it must flag and the
corresponding clean code it must pass — plus a cross-module case that
only an *interprocedural* analysis can catch (the effect lives two
calls away from the loop, in another module).
"""

from __future__ import annotations

import pytest

from repro.devtools.framework import module_from_source, run_rules
from repro.devtools.flow import (
    EFFECT_MUTATE,
    EFFECT_RNG,
    EFFECT_SCHEDULE,
    FlowAnalysis,
    OrderingHazardRule,
    RngDisciplineRule,
    SharedMutableStateRule,
)


def mod(source: str, name: str = "repro.core.snippet"):
    return module_from_source(source, name=name, path=f"<{name}>")


def findings(rule, *modules):
    return run_rules(list(modules), [rule])


# ------------------------------------------------------------- call graph


class TestCallGraph:
    def test_relative_import_aliases_resolve_against_package(self):
        m = mod(
            "from . import idspace\n"
            "from .node import PastryNode\n"
            "from ..netsim import MessageStats\n",
            name="repro.pastry.network",
        )
        aliases = m.aliases
        assert aliases["idspace"] == "repro.pastry.idspace"
        assert aliases["PastryNode"] == "repro.pastry.node.PastryNode"
        assert aliases["MessageStats"] == "repro.netsim.MessageStats"

    def test_qualified_project_call_resolves_exactly(self):
        helper = mod(
            "def routing_key(fid):\n    return fid\n",
            name="repro.pastry.idspace",
        )
        caller = mod(
            "from . import idspace\n"
            "def go(fid):\n    return idspace.routing_key(fid)\n",
            name="repro.pastry.node",
        )
        analysis = FlowAnalysis([helper, caller])
        facts = analysis.facts["repro.pastry.node.go"]
        assert ("repro.pastry.idspace.routing_key", 3) in facts.calls

    def test_method_call_resolves_by_name_across_classes(self):
        m = mod(
            "class LeafSet:\n"
            "    def consider(self, x):\n"
            "        self._members = set()\n"
            "def drive(node):\n"
            "    node.leafset.consider(1)\n",
            name="repro.pastry.leafset",
        )
        analysis = FlowAnalysis([m])
        facts = analysis.facts["repro.pastry.leafset.drive"]
        assert any(q.endswith("LeafSet.consider") for q, _ in facts.calls)

    def test_a_call_on_a_literal_links_no_project_function(self):
        m = mod(
            "class Overlay:\n"
            "    def join(self, node):\n"
            "        self.sim.schedule(1.0, node)\n"
            "def render(parts):\n"
            "    return \"\".join(parts)\n",
            name="repro.core.overlay",
        )
        analysis = FlowAnalysis([m])
        assert analysis.facts["repro.core.overlay.render"].calls == []
        assert EFFECT_SCHEDULE not in analysis.effects["repro.core.overlay.render"]

    def test_effects_propagate_transitively(self):
        m = mod(
            "class Net:\n"
            "    def deep(self):\n"
            "        self.sim.schedule(1.0, self.deep)\n"
            "    def middle(self):\n"
            "        self.deep()\n"
            "    def top(self):\n"
            "        self.middle()\n",
            name="repro.core.net",
        )
        analysis = FlowAnalysis([m])
        assert EFFECT_SCHEDULE in analysis.effects["repro.core.net.Net.top"]
        assert EFFECT_SCHEDULE in analysis.effects["repro.core.net.Net.middle"]

    def test_mutating_a_fresh_local_is_not_an_effect(self):
        m = mod(
            "def collect(items):\n"
            "    out = []\n"
            "    for item in items:\n"
            "        out.append(item)\n"
            "    return out\n",
            name="repro.core.util",
        )
        analysis = FlowAnalysis([m])
        assert EFFECT_MUTATE not in analysis.effects["repro.core.util.collect"]

    def test_mutating_self_state_is_an_effect(self):
        m = mod(
            "class Store:\n"
            "    def drop(self, fid):\n"
            "        self._entries.pop(fid, None)\n",
            name="repro.core.store",
        )
        analysis = FlowAnalysis([m])
        assert EFFECT_MUTATE in analysis.effects["repro.core.store.Store.drop"]

    def test_init_self_assignment_is_not_mutation(self):
        m = mod(
            "class Node:\n"
            "    def __init__(self):\n"
            "        self.x = {}\n"
            "        self.x['a'] = 1\n",
            name="repro.core.n",
        )
        analysis = FlowAnalysis([m])
        assert EFFECT_MUTATE not in analysis.effects["repro.core.n.Node.__init__"]


# ------------------------------------------------- flow-ordering-hazard


HAZARD_MUTATE = """
class Net:
    def __init__(self):
        self.seen = set()
    def mark(self, x):
        self.seen.add(x)
    def sweep(self, items):
        for item in {i for i in items}:
            self.mark(item)
"""

CLEAN_SORTED = """
class Net:
    def __init__(self):
        self.seen = set()
    def mark(self, x):
        self.seen.add(x)
    def sweep(self, items):
        for item in sorted({i for i in items}):
            self.mark(item)
"""


class TestOrderingHazard:
    def test_flags_set_iteration_driving_mutation(self):
        found = findings(OrderingHazardRule(), mod(HAZARD_MUTATE))
        assert len(found) == 1
        assert found[0].rule == "flow-ordering-hazard"
        assert "mutates shared state" in found[0].message
        assert found[0].line == 8

    def test_sorted_wrapper_passes(self):
        assert findings(OrderingHazardRule(), mod(CLEAN_SORTED)) == []

    def test_cross_module_schedule_effect_is_caught(self):
        provider = mod(
            "def peers():\n    return set()\n",
            name="repro.pastry.util",
        )
        consumer = mod(
            "from repro.pastry.util import peers\n"
            "def kick(sim):\n"
            "    for p in peers():\n"
            "        sim.schedule(1.0, p)\n",
            name="repro.core.driver",
        )
        found = findings(OrderingHazardRule(), provider, consumer)
        assert len(found) == 1
        assert "schedules events" in found[0].message
        assert "peers()" in found[0].message

    def test_set_typed_attribute_iteration_flagged(self):
        m = mod(
            "class Replica:\n"
            "    def __init__(self):\n"
            "        self.referrers = set()\n"
            "class Node:\n"
            "    def drop_all(self, replica):\n"
            "        for ref in replica.referrers:\n"
            "            self.table.pop(ref, None)\n",
            name="repro.core.rep",
        )
        found = findings(OrderingHazardRule(), m)
        assert len(found) == 1
        assert "referrers" in found[0].message

    def test_effect_free_loop_body_passes(self):
        m = mod(
            "def total(ids):\n"
            "    acc = 0\n"
            "    for i in set(ids):\n"
            "        acc = acc + i\n"
            "    return acc\n",
            name="repro.core.sum",
        )
        assert findings(OrderingHazardRule(), m) == []

    def test_out_of_scope_module_passes(self):
        assert findings(
            OrderingHazardRule(), mod(HAZARD_MUTATE, name="repro.experiments.snip")
        ) == []

    def test_flags_both_loops_drawing_one_shared_rng(self):
        # One shared RNG drawn from two unordered loops: each loop is its
        # own finding, so the draw-order defect is reported at both sites.
        m = mod(
            "import random\n"
            "class Sim:\n"
            "    def __init__(self, seed):\n"
            "        self.rng = random.Random(seed)\n"
            "    def _draw(self):\n"
            "        return self.rng.random()\n"
            "    def a(self, xs):\n"
            "        out = []\n"
            "        for x in set(xs):\n"
            "            out.append(self._draw())\n"
            "        return out\n"
            "    def b(self, ys):\n"
            "        out = []\n"
            "        for y in frozenset(ys):\n"
            "            out.append(self._draw())\n"
            "        return out\n",
            name="repro.core.sim",
        )
        found = findings(OrderingHazardRule(), m)
        assert [f.line for f in found] == [9, 14]
        assert all("consumes an RNG via _draw()" in f.message for f in found)
        assert findings(RngDisciplineRule(), m) == []

    def test_suppression_comment_silences_finding(self):
        suppressed = HAZARD_MUTATE.replace(
            "for item in {i for i in items}:",
            "for item in {i for i in items}:  # lint: ignore[flow-ordering-hazard]",
        )
        assert findings(OrderingHazardRule(), mod(suppressed)) == []


# ------------------------------------------------- flow-rng-discipline


class TestRngDiscipline:
    def test_flags_rng_constructed_in_entry_point(self):
        m = mod(
            "import random\n"
            "def jitter():\n"
            "    rng = random.Random(7)\n"
            "    return rng.random()\n",
            name="repro.netsim.j",
        )
        found = findings(RngDisciplineRule(), m)
        assert len(found) == 1
        assert "random.Random" in found[0].message
        assert found[0].line == 3

    def test_flags_construction_in_private_helper_reachable_from_entry(self):
        m = mod(
            "import random\n"
            "def _mk():\n"
            "    return random.Random(3)\n"
            "def roll():\n"
            "    return _mk().random()\n",
            name="repro.netsim.h",
        )
        found = findings(RngDisciplineRule(), m)
        assert len(found) == 1
        assert "_mk" in found[0].message

    def test_construction_in_init_passes(self):
        m = mod(
            "import random\n"
            "class Net:\n"
            "    def __init__(self, seed):\n"
            "        self.rng = random.Random(seed)\n",
            name="repro.core.net",
        )
        assert findings(RngDisciplineRule(), m) == []

    def test_rng_parameter_passes(self):
        m = mod(
            "def jitter(rng):\n    return rng.random()\n",
            name="repro.netsim.j",
        )
        # Drawing from a received rng in a single ordered context is the
        # sanctioned pattern.
        assert findings(RngDisciplineRule(), m) == []

    def test_sorted_contexts_do_not_count(self):
        m = mod(
            "import random\n"
            "class Sim:\n"
            "    def __init__(self, seed):\n"
            "        self.rng = random.Random(seed)\n"
            "    def _draw(self):\n"
            "        return self.rng.random()\n"
            "    def a(self, xs):\n"
            "        return [self._draw() for _ in sorted(set(xs))]\n"
            "    def b(self, ys):\n"
            "        return [self._draw() for _ in sorted(set(ys))]\n",
            name="repro.core.sim",
        )
        assert findings(RngDisciplineRule(), m) == []
        assert findings(OrderingHazardRule(), m) == []


# ------------------------------------------------- flow-shared-state


class TestSharedMutableState:
    def test_flags_class_level_mutable_attribute(self):
        m = mod(
            "class Node:\n"
            "    cache = {}\n"
            "    def __init__(self):\n"
            "        pass\n",
            name="repro.core.n",
        )
        found = findings(SharedMutableStateRule(), m)
        assert len(found) == 1
        assert "Node.cache" in found[0].message
        assert found[0].line == 2

    def test_flags_mutable_default_argument(self):
        m = mod(
            "def handle(event, acc=[]):\n    acc.append(event)\n",
            name="repro.netsim.h",
        )
        found = findings(SharedMutableStateRule(), m)
        assert len(found) == 1
        assert "acc" in found[0].message

    def test_dataclass_field_default_factory_passes(self):
        m = mod(
            "from dataclasses import dataclass, field\n"
            "from typing import Set\n"
            "@dataclass\n"
            "class Replica:\n"
            "    referrers: Set[int] = field(default_factory=set)\n",
            name="repro.core.r",
        )
        assert findings(SharedMutableStateRule(), m) == []

    def test_none_default_passes(self):
        m = mod(
            "def handle(event, acc=None):\n"
            "    acc = acc if acc is not None else []\n"
            "    acc.append(event)\n",
            name="repro.netsim.h",
        )
        assert findings(SharedMutableStateRule(), m) == []

    def test_out_of_scope_module_passes(self):
        m = mod("class C:\n    shared = []\n", name="repro.workloads.w")
        assert findings(SharedMutableStateRule(), m) == []
