"""Simulation-purity rule: the simulator must not touch the outside world.

``repro.pastry``, ``repro.netsim`` and ``repro.core`` are a closed
discrete-event world — threads, sockets, processes and file I/O inside
them would introduce scheduling and filesystem nondeterminism that no
seed controls (and would block the planned in-process scale-up, see
ROADMAP.md).  Workload loaders (``repro.workloads``) legitimately read
trace files and are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import PURE_SUBPACKAGES, Finding, ModuleInfo, Rule, local_definitions, qualified_name

#: Top-level modules whose import alone signals impurity.
_BANNED_IMPORTS = frozenset(
    {
        "_thread", "asyncio", "concurrent", "ctypes", "fcntl", "ftplib",
        "glob", "http", "io", "multiprocessing", "pathlib", "queue",
        "requests", "select", "selectors", "shutil", "signal", "smtplib",
        "socket", "socketserver", "ssl", "subprocess", "tempfile",
        "threading", "urllib",
    }
)

#: Calls that perform I/O even without a banned import.
_BANNED_CALLS = frozenset({"open", "input", "breakpoint", "exec", "eval"})
_BANNED_QUALIFIED = frozenset(
    {"os.system", "os.popen", "os.fork", "os.spawn", "os.remove", "os.unlink",
     "os.mkdir", "os.makedirs", "os.rename", "sys.exit"}
)


class SimPurityRule(Rule):
    """Flag concurrency/network/file-I/O constructs in simulation layers."""

    name = "sim-purity"
    description = (
        "repro.pastry/netsim/core must not import threading/socket/etc. nor "
        "call open()/print(): the simulator is a closed deterministic world"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.subpackage not in PURE_SUBPACKAGES:
            return
        defined = local_definitions(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _BANNED_IMPORTS:
                        yield self.finding(
                            module, node,
                            f"import of {alias.name!r} inside repro.{module.subpackage}: "
                            "simulation layers must stay free of concurrency/network/file I/O",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                top = node.module.split(".")[0]
                if top in _BANNED_IMPORTS:
                    yield self.finding(
                        module, node,
                        f"import from {node.module!r} inside repro.{module.subpackage}: "
                        "simulation layers must stay free of concurrency/network/file I/O",
                    )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _BANNED_CALLS | {"print"}
                    and node.func.id not in defined
                    and node.func.id not in module.aliases
                ):
                    yield self.finding(
                        module, node,
                        f"{node.func.id}() inside repro.{module.subpackage}: simulation layers "
                        "must not perform I/O; return data and let callers report it",
                    )
                else:
                    qual = qualified_name(node.func, module.aliases)
                    if qual in _BANNED_QUALIFIED:
                        yield self.finding(
                            module, node,
                            f"{qual}() inside repro.{module.subpackage}: simulation layers "
                            "must not touch the process or filesystem",
                        )
