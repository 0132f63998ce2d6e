"""Interprocedural effect and set-typedness inference.

Two fixpoints over the :class:`~.callgraph.ProjectIndex`:

* **Effects** — each function's *direct* effects (schedules an event,
  consumes an RNG, mutates shared state) are read off its AST, then
  propagated along resolved call edges until nothing changes.  The
  analysis records, per transitive effect, the callee through which it
  first arrived so findings can name the sink.
* **Set-typedness** — which expressions evaluate to a ``set`` or
  ``frozenset``: literals and comprehensions, ``set()``/``frozenset()``
  constructions, unions/intersections of sets, locally-assigned names,
  attributes whose *anywhere-in-project* assignment is set-typed (a
  name-keyed registry, matching the method-name over-approximation of
  the call graph), and calls to project functions whose returns are
  set-typed (computed as a fixpoint so ``members()`` -> ``set(...)``
  propagates through wrappers).

Deliberate scope limits (documented in DESIGN.md): ``dict`` views are
insertion-ordered on every supported CPython and are *not* treated as
unordered — only ``vars()``/``globals()``/``locals()``/``__dict__`` are;
set-typed *parameters* are not tracked (an ``Iterable[int]`` parameter
may or may not receive a set, and its iteration order is the caller's
responsibility).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..framework import ModuleInfo, collect_modules, shared_analysis
from .callgraph import (
    EXTERNAL_MUTATORS,
    MUTATOR_METHODS,
    RNG_METHODS,
    SCHEDULE_METHODS,
    FunctionInfo,
    attribute_root,
    get_index,
    iter_own_nodes,
)

EFFECT_SCHEDULE = "schedules events"
EFFECT_RNG = "consumes an RNG"
EFFECT_MUTATE = "mutates shared state"

#: External constructors of RNG state (``random.Random`` etc.).
RNG_CONSTRUCTORS = frozenset({
    "random.Random",
    "random.SystemRandom",
    "secrets.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
})

#: Calls that preserve the (un)orderedness of their single argument.
_ORDER_PRESERVING = frozenset({"list", "tuple", "iter", "reversed", "enumerate"})

#: Constructors whose result is a fresh, caller-local container.
_FRESH_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "frozenset", "tuple", "sorted", "reversed",
    "defaultdict", "deque", "OrderedDict", "Counter",
})


@dataclass
class FunctionFacts:
    """Per-function facts read directly off the AST (no propagation)."""

    info: FunctionInfo
    #: effect kind -> line number of the first direct witness.
    direct: Dict[str, int] = field(default_factory=dict)
    #: resolved call edges: (callee qualname, call node lineno).
    calls: List[Tuple[str, int]] = field(default_factory=list)
    #: expressions returned by ``return`` statements.
    returns: List[ast.expr] = field(default_factory=list)
    #: RNG constructor calls: (dotted constructor name, node).
    rng_constructions: List[Tuple[str, ast.Call]] = field(default_factory=list)
    #: names bound only to fresh container expressions (never a param).
    fresh_locals: Set[str] = field(default_factory=set)
    #: every name assigned in the function body.
    assigned: Set[str] = field(default_factory=set)
    #: names declared ``global``/``nonlocal``.
    outer_names: Set[str] = field(default_factory=set)


def _is_fresh_container(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.Tuple,
                         ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in _FRESH_CONSTRUCTORS
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        return _is_fresh_container(expr.left) and _is_fresh_container(expr.right)
    return False


class FlowAnalysis:
    """Effects + set-typedness over one module set (built once per run)."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.index = get_index(modules)
        self.facts: Dict[str, FunctionFacts] = {}
        #: attribute names assigned a set-typed value anywhere in the project.
        self.set_attrs: Set[str] = set()
        #: project functions whose return value is set-typed.
        self.returns_set: Set[str] = set()
        #: qualname -> {effect: (witness lineno, via-callee or None)}.
        self.effects: Dict[str, Dict[str, Tuple[int, Optional[str]]]] = {}
        self._reach_cache: Dict[str, Set[str]] = {}

        for qual, info in self.index.functions.items():
            self.facts[qual] = self._extract(info, None)
        self._collect_set_attrs(modules)
        self._fixpoint_returns_set()
        self._fixpoint_effects()

    # ------------------------------------------------------------ extraction

    def _extract(
        self, info: FunctionInfo, seed_fresh: Optional[Set[str]]
    ) -> FunctionFacts:
        facts = FunctionFacts(info=info)
        params = info.param_names
        # ``seed_fresh`` pre-populates fresh locals from an enclosing scope
        # when extracting a loop body: a list built before the loop is
        # still a fresh local inside it.
        fresh_candidates: Dict[str, bool] = (
            {name: True for name in seed_fresh} if seed_fresh else {}
        )
        # Pass 1: bindings only, so receiver classification in pass 2 does
        # not depend on AST traversal order.
        for node in iter_own_nodes(info):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                facts.outer_names.update(node.names)
            elif isinstance(node, ast.Return) and node.value is not None:
                facts.returns.append(node.value)
            elif isinstance(node, ast.Assign):
                fresh = _is_fresh_container(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        facts.assigned.add(target.id)
                        prev = fresh_candidates.get(target.id, True)
                        fresh_candidates[target.id] = prev and fresh
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    facts.assigned.add(node.target.id)
                    prev = fresh_candidates.get(node.target.id, True)
                    fresh_candidates[node.target.id] = (
                        prev and _is_fresh_container(node.value)
                    )
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    facts.assigned.add(node.target.id)
        # Pass 2: effects and call edges.
        for node in iter_own_nodes(info):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if not isinstance(target, ast.Name):
                        self._record_target_mutation(facts, target, params)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    if node.target.id in params or node.target.id in facts.outer_names:
                        facts.direct.setdefault(EFFECT_MUTATE, node.lineno)
                else:
                    self._record_target_mutation(facts, node.target, params)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        self._record_target_mutation(facts, target, params)
            elif isinstance(node, ast.Call):
                self._record_call(facts, node, params, fresh_candidates)
        facts.fresh_locals = {
            name for name, fresh in fresh_candidates.items()
            if fresh and name not in params
        }
        return facts

    def _record_target_mutation(
        self, facts: FunctionFacts, target: ast.expr, params: Set[str]
    ) -> None:
        """An assignment through an attribute/subscript chain."""
        root = attribute_root(target)
        if root is None:
            facts.direct.setdefault(EFFECT_MUTATE, target.lineno)
            return
        # ``self.x = ...`` inside __init__ initialises a fresh instance.
        if root in ("self", "cls") and facts.info.name == "__init__":
            return
        facts.direct.setdefault(EFFECT_MUTATE, target.lineno)

    def _record_call(
        self,
        facts: FunctionFacts,
        call: ast.Call,
        params: Set[str],
        fresh_candidates: Dict[str, bool],
    ) -> None:
        info = facts.info
        targets, external = self.index.resolve_call(call, info)
        for qual in targets:
            facts.calls.append((qual, call.lineno))
        if external in RNG_CONSTRUCTORS:
            facts.rng_constructions.append((external, call))
        if external in EXTERNAL_MUTATORS and call.args:
            root = attribute_root(call.args[0])
            if self._root_is_shared(root, facts, params, fresh_candidates):
                facts.direct.setdefault(EFFECT_MUTATE, call.lineno)
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr in SCHEDULE_METHODS:
                facts.direct.setdefault(EFFECT_SCHEDULE, call.lineno)
            if attr in RNG_METHODS:
                facts.direct.setdefault(EFFECT_RNG, call.lineno)
            if attr in MUTATOR_METHODS:
                root = attribute_root(call.func.value)
                if self._root_is_shared(root, facts, params, fresh_candidates):
                    facts.direct.setdefault(EFFECT_MUTATE, call.lineno)

    @staticmethod
    def _root_is_shared(
        root: Optional[str],
        facts: FunctionFacts,
        params: Set[str],
        fresh_candidates: Dict[str, bool],
    ) -> bool:
        """Whether mutating a container rooted at ``root`` escapes the call.

        Fresh local containers (``out = []; out.append(x)``) are benign;
        everything else — ``self``, parameters, globals, locals aliasing
        shared structures — counts as shared-state mutation.
        """
        if root is None:
            # Rooted in a call result: a fresh temporary.
            return False
        if root in ("self", "cls"):
            return facts.info.name != "__init__"
        if fresh_candidates.get(root, False) and root not in params:
            return False
        return True

    # --------------------------------------------------------- set inference

    def _collect_set_attrs(self, modules: Sequence[ModuleInfo]) -> None:
        """Attribute names assigned set-typed values, keyed by bare name."""
        set_annotations = ("Set", "FrozenSet", "set", "frozenset", "MutableSet")
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Assign):
                    if self._is_set_literalish(node.value):
                        for target in node.targets:
                            if isinstance(target, ast.Attribute):
                                self.set_attrs.add(target.attr)
                elif isinstance(node, ast.AnnAssign):
                    ann = ast.dump(node.annotation) if node.annotation else ""
                    if any(f"'{name}'" in ann for name in set_annotations):
                        if isinstance(node.target, ast.Attribute):
                            self.set_attrs.add(node.target.attr)
                        elif isinstance(node.target, ast.Name):
                            # dataclass field annotation: register the name
                            # when it sits directly inside a class body.
                            self.set_attrs.add(node.target.id)
                    elif node.value is not None and self._is_set_literalish(node.value):
                        if isinstance(node.target, ast.Attribute):
                            self.set_attrs.add(node.target.attr)

    @staticmethod
    def _is_set_literalish(expr: ast.expr) -> bool:
        """Syntactically set-typed, with no project knowledge needed."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in ("set", "frozenset"):
                return True
            # dataclasses.field(default_factory=set)
            if expr.func.id == "field":
                for kw in expr.keywords:
                    if (
                        kw.arg == "default_factory"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id in ("set", "frozenset")
                    ):
                        return True
        return False

    def _fixpoint_returns_set(self) -> None:
        changed = True
        while changed:
            changed = False
            for qual, facts in self.facts.items():
                if qual in self.returns_set or facts.info.is_module_body:
                    continue
                for expr in facts.returns:
                    if self.unordered_reason(expr, facts.info) is not None:
                        self.returns_set.add(qual)
                        changed = True
                        break

    def unordered_reason(
        self, expr: ast.expr, func: FunctionInfo, _depth: int = 0
    ) -> Optional[str]:
        """Why ``expr`` iterates in nondeterministic order (None = ordered).

        Returns a short human description of the evidence, e.g.
        ``"set constructed by members()"`` or ``"set-typed attribute
        '_members'"``.
        """
        if _depth > 8:
            return None
        if isinstance(expr, ast.Set):
            return "a set literal"
        if isinstance(expr, ast.SetComp):
            return "a set comprehension"
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            left = self.unordered_reason(expr.left, func, _depth + 1)
            if left is not None:
                return left
            return self.unordered_reason(expr.right, func, _depth + 1)
        if isinstance(expr, ast.Call):
            fn = expr.func
            if isinstance(fn, ast.Name):
                if fn.id in ("set", "frozenset"):
                    return f"a {fn.id}() construction"
                if fn.id == "sorted":
                    return None
                if fn.id in ("vars", "globals", "locals"):
                    return f"the unordered {fn.id}() namespace view"
                if fn.id in _ORDER_PRESERVING and expr.args:
                    return self.unordered_reason(expr.args[0], func, _depth + 1)
            targets, _ = self.index.resolve_call(expr, func)
            set_returning = [q for q in targets if q in self.returns_set]
            if set_returning:
                name = set_returning[0].rsplit(".", 1)[-1]
                return f"the set returned by {name}()"
            return None
        if isinstance(expr, ast.Name):
            facts = self.facts.get(func.qualname)
            if facts is None or expr.id in func.param_names:
                return None
            return self._local_binding_reason(expr.id, func, _depth)
        if isinstance(expr, ast.Attribute):
            if expr.attr == "__dict__":
                return "the unordered __dict__ view"
            if expr.attr in self.set_attrs:
                return f"the set-typed attribute '{expr.attr}'"
            return None
        return None

    def _local_binding_reason(
        self, name: str, func: FunctionInfo, depth: int
    ) -> Optional[str]:
        """Trace a local name to its assignments (flow-insensitive)."""
        for node in iter_own_nodes(func):
            value = None
            if isinstance(node, ast.Assign):
                if any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
                    value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name) and node.target.id == name:
                    value = node.value
            if value is not None and not isinstance(value, ast.Name):
                reason = self.unordered_reason(value, func, depth + 1)
                if reason is not None:
                    return f"'{name}' bound to {reason}"
        return None

    # ---------------------------------------------------------- propagation

    def _fixpoint_effects(self) -> None:
        for qual, facts in self.facts.items():
            self.effects[qual] = {
                kind: (line, None) for kind, line in facts.direct.items()
            }
        changed = True
        while changed:
            changed = False
            for qual, facts in self.facts.items():
                mine = self.effects[qual]
                for callee, line in facts.calls:
                    if callee == qual:
                        continue
                    for kind in self.effects.get(callee, ()):
                        if kind not in mine:
                            mine[kind] = (line, callee)
                            changed = True

    # -------------------------------------------------------------- queries

    def reachable_from(self, qual: str) -> Set[str]:
        """Transitive closure of project call edges from one function."""
        cached = self._reach_cache.get(qual)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        stack = [qual]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            facts = self.facts.get(current)
            if facts is None:
                continue
            for callee, _line in facts.calls:
                if callee not in seen:
                    stack.append(callee)
        self._reach_cache[qual] = seen
        return seen

    def body_effects(
        self, body: Sequence[ast.stmt], func: FunctionInfo
    ) -> Dict[str, Tuple[int, Optional[str]]]:
        """Transitive effects of a statement list (a loop body)."""
        shell = FunctionInfo(
            qualname=func.qualname,
            name=func.name,
            module=func.module,
            node=_wrap_body(func, body),
            class_name=func.class_name,
        )
        # Fresh-local classification comes from the *enclosing* function:
        # a list built before the loop is still a fresh local inside it.
        enclosing = self.facts.get(func.qualname)
        seed = enclosing.fresh_locals if enclosing is not None else set()
        facts = self._extract(shell, seed)
        found: Dict[str, Tuple[int, Optional[str]]] = {
            kind: (line, None) for kind, line in facts.direct.items()
        }
        for callee, line in facts.calls:
            for kind in self.effects.get(callee, {}):
                if kind not in found:
                    found[kind] = (line, callee)
        return found


def _wrap_body(func: FunctionInfo, body: Sequence[ast.stmt]):
    """A FunctionDef shell holding ``body`` for re-extraction."""
    shell = ast.FunctionDef(
        name=func.name,
        args=func.node.args if not func.is_module_body else ast.arguments(
            posonlyargs=[], args=[], vararg=None, kwonlyargs=[],
            kw_defaults=[], kwarg=None, defaults=[],
        ),
        body=list(body),
        decorator_list=[],
        returns=None,
        type_comment=None,
    )
    shell.lineno = body[0].lineno if body else func.lineno
    shell.col_offset = 0
    return ast.fix_missing_locations(shell)


def get_analysis(modules: Sequence[ModuleInfo]) -> FlowAnalysis:
    return shared_analysis(FlowAnalysis, modules)


@lru_cache(maxsize=None)
def project_effect_sets() -> Mapping[str, frozenset]:
    """Transitive effect kinds per function of the ``repro`` source tree.

    The schedule explorer's independence relation: two event callbacks
    whose effect sets are disjoint commute, so their orderings need not
    both be explored.  Analyses the package this module was imported
    from, so the relation reflects the code actually running; that code
    cannot change under a running interpreter, so it is analysed once
    per process and every caller shares one read-only map.  Keys are
    dotted qualnames (``repro.pastry.node.PastryNode.learn``); runtime
    callbacks carry only ``__qualname__`` (``PastryNode.learn``), so
    consumers match by dotted suffix.
    """
    effects = FlowAnalysis(collect_modules([Path(__file__).resolve().parents[2]])).effects
    return MappingProxyType({qual: frozenset(kinds) for qual, kinds in effects.items()})
