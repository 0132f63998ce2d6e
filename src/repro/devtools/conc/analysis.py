"""Concurrency-readiness analysis: atomicity across suspension points.

The simulator runs every handler to completion, so the codebase is full
of latent check-then-act sequences that are safe today only because
nothing can interleave.  The real-network execution plane breaks that
assumption at exactly one kind of program point: a call that reaches the
transport (an RPC send, a probe, a route).  Under a concurrent transport
each such call is a **suspension point** — other handlers may run while
the reply is in flight, so any shared state read *before* the call is
stale *after* it.

The analysis therefore looks for the classic TOCTOU shape, per function:

1. a read of shared state ``K`` (an attribute chain rooted in ``self``,
   a parameter, or a non-fresh local) happens before a suspension point;
2. a write of a *prefix-compatible* key (one chain is a prefix of the
   other) happens after that suspension point;
3. and no **confirming re-read** of a compatible key sits between the
   *last* suspension preceding the write and the write itself.

A confirming re-read must be a direct attribute chain (no alias
indirection — ``plan = self.store.fault_plan`` does not confirm
anything) and must appear in *test position*: an ``if``/``while`` test,
an ``assert``, a ternary condition, or a ``boolop``/comparison operand
inside one.  Binding the stale value to a local and branching on the
local later proves nothing about the post-suspension world; re-reading
the structure inside the branch condition does.  ``x += 1`` style
augmented writes are exempt — counters commute.

Loop bodies are scanned twice back to back so a read at the top of an
iteration is seen as preceding the suspension of the *previous*
iteration (wrap-around hazards).

Everything is flow-insensitive across branches (statements are
linearised in source order), which over-reports — the committed
baseline captures the accepted debt, and the planted-fixture tests pin
the calibrated behaviour on the repaired production paths.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..framework import ModuleInfo
from ..flow.analysis import EFFECT_MUTATE, FlowAnalysis, get_analysis
from ..flow.callgraph import MUTATOR_METHODS, FunctionInfo, iter_own_nodes

#: Attribute-call names that reach the network/fault plane directly.
#: Any call transitively reaching one of these is a suspension point.
SUSPEND_PRIMITIVES = frozenset({
    "record_rpc", "rpc_lost", "probe_lost", "transmit",
    "send", "probe", "route",
})

#: How many attribute components a state key keeps beyond its root.
_KEY_DEPTH = 2


def _chain_of(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``self.store.pointers[fid]`` -> ``("self", "store", "pointers")``.

    Subscripts are transparent (indexing selects within the same shared
    region); a chain rooted in a call result returns ``None``.
    """
    parts: List[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain = (node.id, *reversed(parts))
        return chain[: _KEY_DEPTH + 1]
    return None


def _compatible(a: Tuple[str, ...], b: Tuple[str, ...]) -> bool:
    """Symmetric prefix compatibility: one key selects within the other."""
    n = min(len(a), len(b))
    return a[:n] == b[:n]


@dataclass(frozen=True)
class Hazard:
    """One unconfirmed read-modify-write across a suspension point."""

    qualname: str       #: function containing the write
    key: str            #: dotted state key, e.g. ``self.last_heard``
    path: str
    line: int           #: write site (first witness)


@dataclass
class _Event:
    kind: str                      # "read" | "write" | "suspend" | "confirm"
    keys: Tuple[Tuple[str, ...], ...]
    line: int


@dataclass
class _FuncConc:
    """Per-function concurrency facts."""

    info: FunctionInfo
    suspends: bool = False
    #: attribute chains (minus the ``self`` root) written directly.
    self_writes: Set[Tuple[str, ...]] = field(default_factory=set)


class ConcAnalysis:
    """Suspension-point atomicity analysis over one module set."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)
        self.flow: FlowAnalysis = get_analysis(modules)
        self.suspending: Set[str] = set()
        self._func: Dict[str, _FuncConc] = {}
        self.hazards: List[Hazard] = []
        self._collect_function_facts()
        self._fixpoint_suspension()
        self._scan_all()

    # ------------------------------------------------------------ extraction

    def _collect_function_facts(self) -> None:
        for qual, facts in self.flow.facts.items():
            fc = _FuncConc(info=facts.info)
            for node in iter_own_nodes(facts.info):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr in SUSPEND_PRIMITIVES:
                        fc.suspends = True
                    if node.func.attr in MUTATOR_METHODS:
                        chain = _chain_of(node.func.value)
                        if chain and chain[0] == "self" and len(chain) > 1:
                            fc.self_writes.add(chain[1:])
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                    targets = (
                        node.targets if isinstance(node, (ast.Assign, ast.Delete))
                        else [node.target]
                    )
                    for target in targets:
                        chain = _chain_of(target)
                        if chain and chain[0] == "self" and len(chain) > 1:
                            fc.self_writes.add(chain[1:])
            self._func[qual] = fc

    def _fixpoint_suspension(self) -> None:
        """Propagate "reaches the transport" along resolved call edges."""
        for qual, fc in self._func.items():
            if fc.suspends:
                self.suspending.add(qual)
        changed = True
        while changed:
            changed = False
            for qual, facts in self.flow.facts.items():
                if qual in self.suspending:
                    continue
                for callee, _line in facts.calls:
                    if callee != qual and callee in self.suspending:
                        self.suspending.add(qual)
                        changed = True
                        break

    def function_suspends(self, qual: str) -> bool:
        return qual in self.suspending

    # ------------------------------------------------------------- event scan

    def _scan_all(self) -> None:
        for qual in self.flow.facts:
            if qual in self.suspending:
                self._scan_function(qual)
        self.hazards.sort(key=lambda h: (h.path, h.line, h.key, h.qualname))

    def _scan_function(self, qual: str) -> None:
        facts = self.flow.facts[qual]
        info = facts.info
        if info.is_module_body or info.name == "__init__":
            return
        events: List[_Event] = []
        aliases: Dict[str, Tuple[str, ...]] = {}
        shared_locals = facts.assigned - facts.fresh_locals
        params = info.param_names

        def is_shared_root(root: str) -> bool:
            if root in ("self", "cls"):
                return True
            if root in params:
                return True
            return root in shared_locals

        def keyset(chain: Optional[Tuple[str, ...]]) -> Tuple[Tuple[str, ...], ...]:
            """Literal key plus its alias translation, shared roots only."""
            if chain is None:
                return ()
            keys: List[Tuple[str, ...]] = []
            if is_shared_root(chain[0]):
                keys.append(chain)
            target = aliases.get(chain[0])
            if target is not None:
                keys.append((target + chain[1:])[: _KEY_DEPTH + 1])
            # A bare ``self`` receiver names the whole object, not a state
            # region; keeping it would make every method call conflict
            # with every attribute write.
            return tuple(k for k in keys if k not in (("self",), ("cls",)))

        def literal_key(chain: Optional[Tuple[str, ...]]) -> Tuple[Tuple[str, ...], ...]:
            if chain is None or len(chain) < 2 or not is_shared_root(chain[0]):
                return ()
            return (chain,)

        def emit_reads(expr: ast.AST, in_test: bool) -> None:
            """READ (and, in test position, CONFIRM) events for one expr."""
            for node in ast.walk(expr):
                chain = None
                if isinstance(node, ast.Call):
                    if isinstance(node.func, ast.Attribute):
                        chain = _chain_of(node.func.value)
                elif isinstance(node, ast.Attribute):
                    chain = _chain_of(node)
                if chain is None:
                    continue
                keys = keyset(chain)
                if keys:
                    events.append(_Event("read", keys, node.lineno))
                if in_test:
                    direct = literal_key(chain)
                    if direct:
                        events.append(_Event("confirm", direct, node.lineno))

        def call_write_keys(call: ast.Call) -> Tuple[Tuple[str, ...], ...]:
            """Keys a call site may write, composed through its callees."""
            if not isinstance(call.func, ast.Attribute):
                return ()
            attr = call.func.attr
            if attr in SUSPEND_PRIMITIVES:
                return ()  # the transport owns its own internals
            receiver = _chain_of(call.func.value)
            if attr in MUTATOR_METHODS:
                return keyset(receiver)
            targets, _external = self.flow.index.resolve_call(call, info)
            if not targets or receiver is None:
                return ()
            recv_keys = keyset(receiver)
            if not recv_keys:
                return ()
            keys: Set[Tuple[str, ...]] = set()
            for callee in targets:
                fc = self._func.get(callee)
                if fc is None:
                    continue
                if fc.self_writes:
                    for written in fc.self_writes:
                        for base in recv_keys:
                            keys.add((base + written)[: _KEY_DEPTH + 1])
                elif EFFECT_MUTATE in self.flow.effects.get(callee, {}):
                    keys.update(recv_keys)
            return tuple(sorted(keys))

        def visit_stmt(stmt: ast.stmt) -> None:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                return
            if isinstance(stmt, (ast.If, ast.While)):
                emit_reads(stmt.test, in_test=True)
                emit_suspends(stmt.test)
                bodies = [stmt.body, stmt.orelse]
                repeat = 2 if isinstance(stmt, ast.While) else 1
                for body in bodies:
                    for _ in range(repeat):
                        for sub in body:
                            visit_stmt(sub)
                return
            if isinstance(stmt, ast.For):
                emit_reads(stmt.iter, in_test=False)
                emit_suspends(stmt.iter)
                for _ in range(2):
                    for sub in stmt.body:
                        visit_stmt(sub)
                for sub in stmt.orelse:
                    visit_stmt(sub)
                return
            if isinstance(stmt, (ast.With, ast.Try)):
                for sub in ast.iter_child_nodes(stmt):
                    if isinstance(sub, ast.stmt):
                        visit_stmt(sub)
                    elif isinstance(sub, ast.withitem):
                        emit_reads(sub.context_expr, in_test=False)
                        emit_suspends(sub.context_expr)
                    elif isinstance(sub, ast.ExceptHandler):
                        for inner in sub.body:
                            visit_stmt(inner)
                return
            if isinstance(stmt, ast.Assert):
                emit_reads(stmt.test, in_test=True)
                emit_suspends(stmt.test)
                return
            if isinstance(stmt, ast.Assign):
                emit_reads(stmt.value, in_test=False)
                emit_suspends(stmt.value)
                for target in stmt.targets:
                    chain = _chain_of(target)
                    if not isinstance(target, ast.Name):
                        keys = keyset(chain)
                        if keys:
                            events.append(_Event("write", keys, stmt.lineno))
                # Alias tracking: ``x = <chain>`` / ``x = obj.method(...)``.
                if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                    name = stmt.targets[0].id
                    value = stmt.value
                    alias: Optional[Tuple[str, ...]] = None
                    if isinstance(value, (ast.Attribute, ast.Subscript)):
                        alias = _chain_of(value)
                    elif isinstance(value, ast.Call) and isinstance(
                        value.func, ast.Attribute
                    ):
                        alias = _chain_of(value.func.value)
                    elif isinstance(value, ast.Name):
                        alias = aliases.get(value.id, (value.id,))
                    if alias is not None and alias[0] != name:
                        resolved = aliases.get(alias[0])
                        if resolved is not None:
                            alias = (resolved + alias[1:])[: _KEY_DEPTH + 1]
                        if is_shared_root(alias[0]):
                            aliases[name] = alias
                            return
                    aliases.pop(name, None)
                return
            if isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    emit_reads(stmt.value, in_test=False)
                    emit_suspends(stmt.value)
                    if not isinstance(stmt.target, ast.Name):
                        keys = keyset(_chain_of(stmt.target))
                        if keys:
                            events.append(_Event("write", keys, stmt.lineno))
                return
            if isinstance(stmt, ast.AugAssign):
                # Commutative counter updates are exempt by design.
                emit_reads(stmt.value, in_test=False)
                emit_suspends(stmt.value)
                return
            if isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    keys = keyset(_chain_of(target))
                    if keys:
                        events.append(_Event("write", keys, stmt.lineno))
                return
            if isinstance(stmt, (ast.Expr, ast.Return)):
                value = stmt.value
                if value is None:
                    return
                emit_reads(value, in_test=False)
                emit_suspends(value)
                return
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    visit_stmt(sub)
                elif isinstance(sub, ast.expr):
                    emit_reads(sub, in_test=False)
                    emit_suspends(sub)

        def emit_suspends(expr: ast.AST) -> None:
            """SUSPEND and composed-WRITE events for calls inside ``expr``."""
            nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            stack = [expr]
            while stack:
                node = stack.pop()
                if isinstance(node, nested):
                    continue
                if isinstance(node, ast.Call):
                    # A callee's writes are attributed *before* its own
                    # suspensions: a confirm ahead of the call blesses
                    # the delegation, and the callee's internal
                    # post-suspension writes are scanned in the callee.
                    keys = call_write_keys(node)
                    if keys:
                        events.append(_Event("write", keys, node.lineno))
                    if self._call_suspends(node, info):
                        events.append(_Event("suspend", (), node.lineno))
                for child in ast.iter_child_nodes(node):
                    stack.append(child)

        for stmt in info.node.body:
            visit_stmt(stmt)
        self._detect(qual, info, events)

    def _call_suspends(self, call: ast.Call, info: FunctionInfo) -> bool:
        if isinstance(call.func, ast.Attribute) and call.func.attr in SUSPEND_PRIMITIVES:
            return True
        targets, _external = self.flow.index.resolve_call(call, info)
        return any(t in self.suspending for t in targets)

    def _detect(self, qual: str, info: FunctionInfo, events: List[_Event]) -> None:
        suspend_positions = [i for i, e in enumerate(events) if e.kind == "suspend"]
        if not suspend_positions:
            return
        flagged: Dict[str, int] = {}
        for w, event in enumerate(events):
            if event.kind != "write":
                continue
            preceding = [s for s in suspend_positions if s < w]
            if not preceding:
                continue
            s_last = preceding[-1]
            for key in event.keys:
                hazard = any(
                    events[r].kind == "read"
                    and r < s_last
                    and any(_compatible(key, rk) for rk in events[r].keys)
                    for r in range(s_last)
                )
                if not hazard:
                    continue
                confirmed = any(
                    events[c].kind == "confirm"
                    and any(
                        _compatible(wk, ck)
                        for wk in event.keys
                        for ck in events[c].keys
                    )
                    for c in range(s_last + 1, w)
                )
                if confirmed:
                    break
                key_str = ".".join(key)
                if key_str not in flagged or event.line < flagged[key_str]:
                    flagged[key_str] = event.line
                break
        short = qual
        if qual.startswith(info.module.name + "."):
            short = qual[len(info.module.name) + 1:]
        for key_str in sorted(flagged):
            self.hazards.append(
                Hazard(
                    qualname=short,
                    key=key_str,
                    path=info.module.path,
                    line=flagged[key_str],
                )
            )


_CACHE: List[Tuple[Tuple[int, ...], ConcAnalysis]] = []


def get_conc_analysis(modules: Sequence[ModuleInfo]) -> ConcAnalysis:
    """One shared analysis per module set (keyed by object identity)."""
    key = tuple(id(m) for m in modules)
    for cached_key, analysis in _CACHE:
        if cached_key == key:
            return analysis
    analysis = ConcAnalysis(modules)
    del _CACHE[:]
    _CACHE.append((key, analysis))
    return analysis
