"""The interprocedural lint rules built on :class:`~.analysis.FlowAnalysis`.

All three rules scope to the simulation subpackages (``pastry``,
``netsim``, ``core``): those are the layers whose behaviour must be a
pure function of the seed for the paper's figures to reproduce.
Experiments and CLI code may iterate sets for reporting without
affecting any measured trajectory.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence

from ..framework import PURE_SUBPACKAGES, Finding, ModuleInfo, ProjectRule
from .analysis import (
    EFFECT_MUTATE,
    EFFECT_RNG,
    EFFECT_SCHEDULE,
    FlowAnalysis,
    get_analysis,
)
from .callgraph import FunctionInfo, iter_own_nodes


def _in_scope(module: ModuleInfo) -> bool:
    return module.subpackage in PURE_SUBPACKAGES


def _scope_functions(analysis: FlowAnalysis) -> List[FunctionInfo]:
    return [
        info for info in analysis.index.functions.values()
        if _in_scope(info.module)
    ]


class OrderingHazardRule(ProjectRule):
    """Iteration over an unordered collection that drives the simulation.

    A ``for`` over a set whose body — transitively, through the call
    graph — schedules events, consumes an RNG, or mutates replica/cache
    state makes the trajectory depend on ``PYTHONHASHSEED``.  Wrapping
    the iterable in ``sorted()`` (with a deterministic tiebreak) fixes
    the hazard.
    """

    name = "flow-ordering-hazard"
    description = (
        "iteration over a set/frozenset whose loop body transitively "
        "schedules events, consumes an RNG, or mutates shared state"
    )

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        analysis = get_analysis(modules)
        for func in _scope_functions(analysis):
            for loop in iter_own_nodes(func):
                if not isinstance(loop, ast.For):
                    continue
                reason = analysis.unordered_reason(loop.iter, func)
                if reason is None:
                    continue
                effects = analysis.body_effects(loop.body + loop.orelse, func)
                for kind in (EFFECT_SCHEDULE, EFFECT_RNG, EFFECT_MUTATE):
                    if kind not in effects:
                        continue
                    line, via = effects[kind]
                    sink = f" via {via.rsplit('.', 1)[-1]}()" if via else ""
                    yield Finding(
                        rule=self.name,
                        path=func.module.path,
                        line=loop.lineno,
                        message=(
                            f"loop over {reason} {kind}{sink} "
                            f"(line {line}); iterate in sorted() or another "
                            f"deterministic order"
                        ),
                    )
                    break


class RngDisciplineRule(ProjectRule):
    """RNG construction discipline for simulation code.

    A function reachable from a public simulation entry point must not
    construct its own ``random.Random``; it receives one instead
    (``__init__`` and module level are the sanctioned construction
    sites — they are where seeds are derived).  A shared RNG drawn from
    inside an unordered loop is :class:`OrderingHazardRule`'s finding.
    """

    name = "flow-rng-discipline"
    description = (
        "RNG constructed outside __init__/module level in a function "
        "reachable from a simulation entry point"
    )

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        analysis = get_analysis(modules)
        scope = _scope_functions(analysis)
        entries = [
            f for f in scope
            if f.name == "<module>" or not f.name.startswith("_")
        ]
        reachable_via: Dict[str, str] = {}
        for entry in entries:
            for qual in analysis.reachable_from(entry.qualname):
                reachable_via.setdefault(qual, entry.qualname)
        for func in scope:
            if func.name in ("__init__", "<module>"):
                continue
            entry = reachable_via.get(func.qualname)
            if entry is None:
                continue
            facts = analysis.facts[func.qualname]
            for ctor, call in facts.rng_constructions:
                yield Finding(
                    rule=self.name,
                    path=func.module.path,
                    line=call.lineno,
                    message=(
                        f"{ctor}() constructed inside {func.qualname} "
                        f"(reachable from entry point {entry}); accept an "
                        f"rng or seed parameter instead of creating one"
                    ),
                )


class SharedMutableStateRule(ProjectRule):
    """Class-level mutable attributes and mutable default arguments.

    Both create state shared across instances or calls: a class-level
    ``cache = {}`` aliases every node's cache to one dict; a mutable
    default argument accretes across event callbacks.  Scoped to the
    simulation subpackages, where such sharing corrupts the per-node
    state the paper's storage model depends on.
    """

    name = "flow-shared-state"
    description = (
        "class-level mutable attribute or mutable default argument in "
        "simulation code"
    )

    _MUTABLE_CTORS = frozenset({
        "list", "dict", "set", "bytearray", "defaultdict", "deque",
        "OrderedDict", "Counter",
    })

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        for module in modules:
            if not _in_scope(module):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class_body(module, node)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_defaults(module, node)

    def _is_mutable_value(self, expr: Optional[ast.expr]) -> bool:
        if expr is None:
            return False
        if isinstance(expr, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in self._MUTABLE_CTORS
        return False

    def _check_class_body(
        self, module: ModuleInfo, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                targets = [stmt.target.id]
                value = stmt.value
            else:
                continue
            if not self._is_mutable_value(value):
                continue
            for name in targets:
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=stmt.lineno,
                    message=(
                        f"class-level mutable attribute "
                        f"'{cls.name}.{name}' is shared across every "
                        f"instance; initialise it in __init__ (or use a "
                        f"dataclass field with default_factory)"
                    ),
                )

    def _check_defaults(
        self, module: ModuleInfo, func: ast.AST
    ) -> Iterator[Finding]:
        args = func.args
        named = args.posonlyargs + args.args
        pos_defaults = args.defaults
        pairs = list(zip(named[len(named) - len(pos_defaults):], pos_defaults))
        pairs += [
            (arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        for arg, default in pairs:
            if self._is_mutable_value(default):
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=default.lineno,
                    message=(
                        f"mutable default argument '{arg.arg}={{...}}' of "
                        f"{func.name}() is shared across calls; default to "
                        f"None and build the container inside the function"
                    ),
                )
