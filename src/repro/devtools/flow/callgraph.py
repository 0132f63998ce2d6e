"""Whole-program function index and call resolution.

Every function and method in the linted module set is registered under a
dotted qualname (``repro.pastry.node.PastryNode.next_hop``).  Calls are
resolved three ways, in order of precision:

1. **Qualified project calls** — ``idspace.routing_key(...)`` where
   ``idspace`` is a (possibly relative) project import resolves to the
   exact target function.
2. **Method-name over-approximation** — ``node.leafset.add(...)`` cannot
   be typed statically, so an attribute call resolves to *every* project
   function with that bare name.  This over-approximates the call graph,
   which is the safe direction for a hazard analysis.
3. **External calls** — anything that bottoms out in a stdlib/builtin
   import is returned as a dotted external name (``random.Random``,
   ``heapq.heappush``) for the effect analysis to pattern-match.

Builtin container mutators (``.add``, ``.pop``, ``.update`` …) are *not*
resolved through the method-name index: their receiver locality decides
whether they mutate shared state, and linking every local ``out.add(x)``
to ``LeafSet.add`` would drown the analysis in false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..framework import ModuleInfo, shared_analysis

#: Simulator methods that enqueue events on the virtual clock.
SCHEDULE_METHODS = frozenset({"schedule", "schedule_at", "every"})

#: Methods that consume pseudo-randomness from an RNG instance
#: (``random.Random`` plus the numpy ``Generator`` names we use).
RNG_METHODS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "integers", "lognormvariate", "normalvariate",
    "paretovariate", "permutation", "randbytes", "randint", "random",
    "randrange", "sample", "shuffle", "standard_normal", "triangular",
    "uniform", "vonmisesvariate", "weibullvariate",
})

#: In-place mutators of builtin containers (and OrderedDict/deque).
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "move_to_end", "pop", "popitem", "popleft", "remove", "reverse",
    "setdefault", "sort", "update",
})

#: External calls that mutate their first argument in place.
EXTERNAL_MUTATORS = frozenset({
    "heapq.heappush", "heapq.heappop", "heapq.heapify", "heapq.heapreplace",
    "heapq.heappushpop", "bisect.insort", "bisect.insort_left",
    "bisect.insort_right", "random.shuffle",
})


@dataclass
class FunctionInfo:
    """One function, method, or module body in the analysed program."""

    qualname: str
    name: str
    module: ModuleInfo
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Module]
    class_name: Optional[str]

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)

    @property
    def is_module_body(self) -> bool:
        return isinstance(self.node, ast.Module)

    @property
    def param_names(self) -> Set[str]:
        if self.is_module_body:
            return set()
        args = self.node.args
        names = {a.arg for a in args.args + args.kwonlyargs + args.posonlyargs}
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        return names


def attribute_root(node: ast.AST) -> Optional[str]:
    """The base ``Name`` id of an attribute/subscript chain, if any.

    ``self.store.primaries`` -> ``"self"``; ``net.nodes[i].store`` ->
    ``"net"``; a chain rooted in a call result returns ``None``.
    """
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _collect_functions(module: ModuleInfo) -> List[FunctionInfo]:
    out: List[FunctionInfo] = []

    def walk(body: Sequence[ast.stmt], prefix: str, class_name: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{stmt.name}"
                out.append(FunctionInfo(qual, stmt.name, module, stmt, class_name))
                walk(stmt.body, f"{qual}.<locals>", None)
            elif isinstance(stmt, ast.ClassDef):
                walk(stmt.body, f"{prefix}.{stmt.name}", stmt.name)
            elif isinstance(stmt, (ast.If, ast.For, ast.While, ast.With, ast.Try)):
                for sub in ast.iter_child_nodes(stmt):
                    if isinstance(sub, ast.stmt):
                        walk([sub], prefix, class_name)

    walk(module.tree.body, module.name, None)
    out.append(FunctionInfo(f"{module.name}.<module>", "<module>", module, module.tree, None))
    return out


#: Bodies that are :class:`FunctionInfo` entries of their own.
NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def iter_own_nodes(func: FunctionInfo, nested=NESTED_SCOPES + (ast.Lambda,)):
    """All AST nodes of a function body, excluding ``nested`` subtrees.

    Effects inside a nested function or lambda belong to *that* callable,
    not to the enclosing one (passing a callback is not performing its
    side effects).  For a module body, nested defs/classes are likewise
    excluded — their bodies are separate :class:`FunctionInfo` entries.
    The wire scan passes :data:`NESTED_SCOPES`: a lambda has no entry, so
    a send in its body is the enclosing function's.
    """
    stack: List[ast.AST] = [n for n in func.node.body if not isinstance(n, nested)]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, nested):
                stack.append(child)


class ProjectIndex:
    """Function registry + call resolution over a module set.

    Built once per module set (:func:`get_index`) and shared by the flow
    analyses and the wire extractor.
    """

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)
        self.functions: Dict[str, FunctionInfo] = {}
        self.by_name: Dict[str, List[str]] = {}
        for module in self.modules:
            for info in _collect_functions(module):
                self.functions[info.qualname] = info
                if info.name != "<module>":
                    self.by_name.setdefault(info.name, []).append(info.qualname)

    # ------------------------------------------------------------ resolution

    def resolve_call(
        self, call: ast.Call, func: FunctionInfo
    ) -> Tuple[List[str], Optional[str]]:
        """Resolve one call site to ``(project_qualnames, external_name)``.

        ``project_qualnames`` is every plausible in-project target (empty
        when the call is external or a builtin); ``external_name`` is a
        dotted name like ``random.Random`` when the call bottoms out in an
        import, or the bare builtin name for ``sorted(...)`` etc.
        """
        aliases = func.module.aliases
        fn = call.func
        if isinstance(fn, ast.Name):
            name = fn.id
            same_module = [
                q for q in self.by_name.get(name, [])
                if self.functions[q].module is func.module
            ]
            if same_module:
                return same_module, None
            origin = aliases.get(name)
            if origin is not None:
                return self._project_or_external(origin)
            return [], name
        if isinstance(fn, ast.Attribute):
            root = attribute_root(fn)
            if root is not None and root in aliases and root not in func.param_names:
                parts: List[str] = []
                node: ast.AST = fn
                while isinstance(node, ast.Attribute):
                    parts.append(node.attr)
                    node = node.value
                if isinstance(node, ast.Name):
                    dotted = ".".join([aliases[node.id]] + list(reversed(parts)))
                    return self._project_or_external(dotted)
            # Builtin container mutators are classified by receiver
            # locality in the effect analysis, never linked by name; a
            # method on a literal (``b"|".join``) is never a project call.
            if fn.attr in MUTATOR_METHODS or isinstance(fn.value, ast.Constant):
                return [], None
            candidates = list(self.by_name.get(fn.attr, []))
            if (
                isinstance(fn.value, ast.Name)
                and fn.value.id in ("self", "cls")
                and func.class_name is not None
            ):
                own_prefix = f"{func.module.name}.{func.class_name}."
                own = [q for q in candidates if q.startswith(own_prefix)]
                if own:
                    return own, None
            return candidates, None
        return [], None

    def _project_or_external(self, dotted: str) -> Tuple[List[str], Optional[str]]:
        if dotted in self.functions:
            return [dotted], None
        init = f"{dotted}.__init__"
        if init in self.functions:
            return [init], None
        return [], dotted


def get_index(modules: Sequence[ModuleInfo]) -> ProjectIndex:
    return shared_analysis(ProjectIndex, modules)
