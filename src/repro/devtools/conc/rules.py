"""The concurrency-readiness checks packaged as lint rules.

Four rules in their own catalogue (:func:`conc_rules`), run by
``repro check`` beside the determinism and wire catalogues.  Atomicity,
blocking and reentrancy findings may be accepted debt in the committed
baseline (``benchmarks/conc_baseline.json``), so the gate fails only on
*new* ones; ``conc-seam`` is never baselined.

Finding messages deliberately contain no line numbers: the baseline key
is ``rule|path|message``, so a finding survives unrelated edits to the
same file and disappears exactly when the hazard itself is fixed.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from ..framework import Finding, ModuleInfo, ProjectRule, Rule, imported_names, qualified_name
from ..flow.analysis import EFFECT_MUTATE
from ..flow.callgraph import SCHEDULE_METHODS
from .analysis import get_conc_analysis

#: Modules the analyzer certifies for the real-network execution plane:
#: pure node/storage logic that must reach time and the network only
#: through the ``Transport`` seam.  ``repro.pastry.network`` and
#: ``repro.core.network`` are deliberately absent — they are the
#: in-process emulator *below* the seam (the sim-backed Transport is
#: implemented in terms of them), not logic that ships to a real node.
ENGINE_PURE_MODULES = (
    "repro.core.cache",
    "repro.core.integrity",
    "repro.core.node",
    "repro.core.storage",
    "repro.pastry.idspace",
    "repro.pastry.keepalive",
    "repro.pastry.leafset",
    "repro.pastry.node",
    "repro.pastry.routingtable",
)

#: External calls that block the OS thread: a live handler waits in them
#: holding its node's dispatch lock and one of ``MAX_WORKERS`` threads.
_HOLDS = "holds the node's dispatch lock and a handler thread"
_BLOCKING_CALLS = {
    "time.sleep": f"wall-clock sleep {_HOLDS}",
    "socket.socket": f"raw socket I/O {_HOLDS}",
    "socket.create_connection": f"raw socket I/O {_HOLDS}",
    "subprocess.run": f"subprocess call {_HOLDS}",
    "subprocess.call": f"subprocess call {_HOLDS}",
    "subprocess.check_call": f"subprocess call {_HOLDS}",
    "subprocess.check_output": f"subprocess call {_HOLDS}",
    "subprocess.Popen": f"subprocess call {_HOLDS}",
    "os.system": f"subprocess call {_HOLDS}",
    "input": f"console input {_HOLDS}",
}

#: Engine subpackages where synchronous file I/O is also a finding
#: (disk access must go through the storage abstraction).
_NO_FILE_IO_SUBPACKAGES = ("pastry", "core")

#: Packages *below* the Transport seam, excluded from the whole conc
#: catalogue.  ``repro.net`` is the real-network execution plane: it
#: owns actual sockets, executor threads and per-node locks, so its
#: concurrency is managed with OS primitives the static suspension
#: model cannot reason about — the same rationale that keeps
#: ``repro.core.network``/``repro.pastry.network`` (the in-process
#: emulator) out of ``ENGINE_PURE_MODULES``.  The catalogue certifies
#: engine logic *above* the seam; the plane below it is validated by
#: the cross-engine differential oracle instead.  ``repro.devtools`` is
#: skipped beside it: no transport ever dispatches into the analyzers,
#: and leaving them in would let the name-based call graph reach back
#: into engine code through same-named analyzer functions.
BELOW_SEAM_PACKAGES = ("repro.net", "repro.devtools")


def _is_engine_pure(module: ModuleInfo) -> bool:
    return module.name in ENGINE_PURE_MODULES


def _is_below_seam(module: ModuleInfo) -> bool:
    return any(
        module.name == pkg or module.name.startswith(pkg + ".")
        for pkg in BELOW_SEAM_PACKAGES
    )


def above_seam(modules: Sequence[ModuleInfo]) -> List[ModuleInfo]:
    return [m for m in modules if not _is_below_seam(m)]


class ConcAtomicityRule(ProjectRule):
    """Unconfirmed read-modify-write across a suspension point."""

    name = "conc-atomicity"
    description = (
        "shared state read before a call that reaches the transport and "
        "written after it, with no confirming re-read in test position "
        "between the last suspension and the write"
    )

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        # Below-seam modules are dropped *before* analysis: leaving them
        # in would let the name-based call graph thread engine cycles
        # through the transport implementation's own send/route/dispatch
        # methods, manufacturing hazards that cannot occur above the seam.
        analysis = get_conc_analysis(above_seam(modules))
        for hazard in analysis.hazards:
            yield Finding(
                rule=self.name,
                path=hazard.path,
                line=hazard.line,
                message=(
                    f"{hazard.qualname}: read-modify-write of "
                    f"'{hazard.key}' spans a suspension point; re-read it "
                    "in test position after the suspension before writing"
                ),
            )


class ConcBlockingRule(Rule):
    """OS-blocking calls and suspension-free busy-wait loops."""

    name = "conc-blocking"
    description = (
        "wall-clock sleeps, sync socket/subprocess/file I/O, and "
        "unbounded while-loops with no exit: each holds a live node's "
        "dispatch lock and one of the MAX_WORKERS handler threads"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if _is_below_seam(module):
            return
        engine = module.subpackage in _NO_FILE_IO_SUBPACKAGES
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = qualified_name(node.func, module.aliases)
                if dotted in _BLOCKING_CALLS:
                    yield self.finding(
                        module, node, f"{dotted}(): {_BLOCKING_CALLS[dotted]}"
                    )
                elif dotted == "open" and engine:
                    yield self.finding(
                        module, node,
                        "open(): engine code must not touch the "
                        "filesystem directly; go through the storage layer",
                    )
            elif isinstance(node, ast.While):
                if self._unbounded(node):
                    yield self.finding(
                        module, node,
                        "while-loop with a constant-true test and no "
                        "break/return/raise: busy-wait that never yields",
                    )

    @staticmethod
    def _unbounded(node: ast.While) -> bool:
        test = node.test
        constant_true = isinstance(test, ast.Constant) and bool(test.value)
        if not constant_true:
            return False
        nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        stack: List[ast.AST] = list(node.body)
        while stack:
            sub = stack.pop()
            if isinstance(sub, nested):
                continue
            if isinstance(sub, (ast.Break, ast.Return, ast.Raise)):
                return False
            # A nested loop owns its own break statements.
            if isinstance(sub, (ast.For, ast.While)):
                stack.extend(sub.orelse)
                for inner in ast.walk(sub):
                    if isinstance(inner, (ast.Return, ast.Raise)):
                        return False
                continue
            stack.extend(ast.iter_child_nodes(sub))
        return True


class ConcReentrancyRule(ProjectRule):
    """A mutating handler that can transitively re-enter itself."""

    name = "conc-reentrancy"
    description = (
        "suspending function reachable from its own callees while "
        "mutating shared state: under a concurrent transport the inner "
        "activation observes the outer one's partial writes"
    )

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        modules = above_seam(modules)
        analysis = get_conc_analysis(modules)
        flow = analysis.flow
        paths = {m.path for m in modules}
        for qual, facts in flow.facts.items():
            info = facts.info
            if info.is_module_body or info.module.path not in paths:
                continue
            # Re-entry needs a suspension for the inner activation to
            # start during the outer one; run-to-completion functions
            # cannot interleave with themselves.
            if qual not in analysis.suspending:
                continue
            if EFFECT_MUTATE not in facts.direct:
                continue
            cycle_via: Optional[str] = None
            for callee, _line in facts.calls:
                if callee == qual:
                    continue
                if qual in flow.reachable_from(callee):
                    cycle_via = callee
                    break
            if cycle_via is None:
                continue
            short = qual
            if qual.startswith(info.module.name + "."):
                short = qual[len(info.module.name) + 1:]
            via = cycle_via.rsplit(".", 1)[-1]
            yield Finding(
                rule=self.name,
                path=info.module.path,
                line=info.lineno,
                message=(
                    f"{short}: mutates shared state and is re-enterable "
                    f"through its call to {via}(); guard against "
                    "re-entry or make the mutation idempotent"
                ),
            )


class ConcSeamRule(ProjectRule):
    """Engine-pure modules reach time/network only through the seam.

    The transport contract (:mod:`repro.netsim.transport`) is the one
    doorway from node logic to clocks, timers, routing and RPC.  Logic
    that bypasses it — importing the simulator at runtime, scheduling on
    a raw sim handle, reading ``sim.now``, or invoking the fault plane's
    primitives directly — cannot be lifted onto a real network without
    rewriting, so each bypass is a finding and the module is *blocked*.
    """

    name = "conc-seam"
    description = (
        "engine-pure module bypasses the Transport seam (runtime "
        "simulator import, raw sim scheduling, direct sim clock read, "
        "or direct network-primitive call)"
    )

    #: Fault/stat-plane primitives the transport wraps; node logic calling
    #: them directly is tied to the in-process emulator.
    _PRIMITIVES = frozenset({"record_rpc", "rpc_lost", "probe_lost", "transmit"})

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        for module in modules:
            if _is_engine_pure(module):
                yield from self._check_module(module)

    def _check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        guarded = self._type_checking_imports(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if node in guarded:
                    continue
                for name in imported_names(module, node):
                    if name.startswith("repro.netsim.eventsim"):
                        yield self.finding(
                            module, node,
                            "runtime import of the simulator "
                            "(repro.netsim.eventsim); accept a Transport "
                            "instead (TYPE_CHECKING-only imports are fine)",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                receiver = self._receiver_parts(node.func.value)
                if attr in SCHEDULE_METHODS and "transport" not in receiver:
                    yield self.finding(
                        module, node,
                        f".{attr}() on a non-transport receiver: timers "
                        "and events must be scheduled through the "
                        "Transport seam",
                    )
                elif attr in self._PRIMITIVES:
                    yield self.finding(
                        module, node,
                        f".{attr}() is a sub-seam network primitive; use "
                        "transport.send()/transport.probe() instead",
                    )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "EventSimulator":
                    yield self.finding(
                        module, node,
                        "EventSimulator(...) constructed in engine code; "
                        "the execution plane owns the clock",
                    )
            elif isinstance(node, ast.Attribute) and node.attr == "now":
                if isinstance(node.ctx, ast.Load):
                    receiver = self._receiver_parts(node.value)
                    if "sim" in receiver:
                        yield self.finding(
                            module, node,
                            "raw simulator clock read (.sim.now); use "
                            "transport.now()",
                        )

    @staticmethod
    def _receiver_parts(node: ast.AST) -> Tuple[str, ...]:
        parts: List[str] = []
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        return tuple(reversed(parts))

    @staticmethod
    def _type_checking_imports(tree: ast.Module) -> Set[ast.AST]:
        guarded: Set[ast.AST] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            is_tc = (
                isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            ) or (
                isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
            )
            if not is_tc:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    guarded.add(sub)
        return guarded


def conc_rules() -> List[Rule]:
    """Fresh instances of the conc catalogue, in report order."""
    return [
        ConcAtomicityRule(),
        ConcBlockingRule(),
        ConcReentrancyRule(),
        ConcSeamRule(),
    ]


CONC_RULE_NAMES: Tuple[str, ...] = tuple(rule.name for rule in conc_rules())
