"""Determinism rules: every random/temporal source must flow from the seed.

The paper's §5 figures are only reproducible if the same master seed
yields the same trajectory.  These rules ban the ways that property
silently breaks: RNGs seeded from OS entropy, the shared module-level
``random`` state, wall-clock reads inside the simulator, and seed
derivation through builtin ``hash()`` (randomized per process by
PYTHONHASHSEED).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import Finding, ModuleInfo, Rule, local_definitions, qualified_name

#: Module-level ``random`` functions that mutate/consume the global RNG.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: ``numpy.random`` entry points that are *not* the legacy global-state API.
_NUMPY_SEEDED_FNS = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"})

#: Wall-clock / entropy sources that are never acceptable in ``repro``.
_WALL_CLOCK_BANNED = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    }
)

#: Benchmark timers, tolerable only where elapsed wall time is *reported*,
#: never where it feeds simulation state.
_PERF_TIMERS = frozenset(
    {"time.perf_counter", "time.perf_counter_ns", "time.process_time", "time.process_time_ns"}
)

#: Subpackages whose code runs inside the simulation proper; experiments,
#: analysis and the CLI sit above the simulator and may time themselves.
SIM_SUBPACKAGES = frozenset({"pastry", "netsim", "core", "security", "erasure", "workloads", "client"})


class UnseededRandomRule(Rule):
    """Flag RNG constructions seeded from OS entropy."""

    name = "unseeded-random"
    description = (
        "random.Random()/numpy default_rng() without an explicit seed, or "
        "random.SystemRandom anywhere, draws OS entropy and breaks replay"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = qualified_name(node.func, module.aliases)
            if qual is None:
                continue
            if qual in ("random.SystemRandom", "secrets.SystemRandom"):
                yield self.finding(module, node, "SystemRandom draws OS entropy; seed a random.Random instead")
            elif qual == "random.Random" and not node.args and not node.keywords:
                yield self.finding(module, node, "random.Random() without a seed draws OS entropy; pass a derived seed")
            elif qual == "numpy.random.default_rng" and not node.args and not node.keywords:
                yield self.finding(module, node, "numpy.random.default_rng() without a seed draws OS entropy; pass a derived seed")


class GlobalRandomRule(Rule):
    """Flag draws from the process-wide shared RNG state."""

    name = "global-random"
    description = (
        "module-level random.*()/legacy numpy.random.*() calls share hidden "
        "global state across call sites; use an explicit Random instance"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = qualified_name(node.func, module.aliases)
            if qual is None:
                continue
            parts = qual.split(".")
            if qual.startswith("random.") and parts[-1] in _GLOBAL_RANDOM_FNS:
                yield self.finding(
                    module, node,
                    f"random.{parts[-1]}() uses the shared global RNG; pass an explicitly seeded random.Random",
                )
            elif (
                qual.startswith("numpy.random.")
                and len(parts) == 3
                and parts[-1] not in _NUMPY_SEEDED_FNS
            ):
                yield self.finding(
                    module, node,
                    f"numpy.random.{parts[-1]}() uses numpy's legacy global state; use numpy.random.default_rng(seed)",
                )


class WallClockRule(Rule):
    """Flag wall-clock and entropy reads; gate perf timers to benchmarks."""

    name = "wall-clock"
    description = (
        "time.time()/datetime.now()/os.urandom() leak wall-clock state; "
        "time.perf_counter() is allowed only above the simulation layers"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        in_sim_layer = module.subpackage in SIM_SUBPACKAGES
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = qualified_name(node.func, module.aliases)
            if qual is None:
                continue
            if qual in _WALL_CLOCK_BANNED:
                yield self.finding(
                    module, node,
                    f"{qual}() reads wall-clock/entropy state; simulation time must come from the event clock",
                )
            elif qual.startswith("secrets."):
                yield self.finding(module, node, f"{qual}() draws OS entropy; derive randomness from the seed")
            elif qual in _PERF_TIMERS and in_sim_layer:
                yield self.finding(
                    module, node,
                    f"{qual}() is allowlisted for benchmark timing only, not inside repro.{module.subpackage}",
                )


class BuiltinHashRule(Rule):
    """Flag builtin ``hash()`` — randomized per process via PYTHONHASHSEED."""

    name = "builtin-hash"
    description = (
        "builtin hash() is salted per process (PYTHONHASHSEED) and must not "
        "feed seeds or stored state; use repro.core.seeding.derive_seed"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        defined = local_definitions(module.tree)
        if "hash" in defined or "hash" in module.aliases:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield self.finding(
                    module, node,
                    "builtin hash() is randomized per process; use repro.core.seeding.derive_seed "
                    "(or hashlib for content digests)",
                )
