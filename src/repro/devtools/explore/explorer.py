"""Bounded schedule search with DPOR pruning and counterexample replay.

The search space is a tree of *plans*.  A plan is a list of frontier
indices, one per decision point (a simulator step that offered two or
more co-enabled events); the empty plan is the default FIFO schedule.
Executing a plan records, via the schedule trace, every decision point
it met and the candidates each one offered — so each executed schedule
tells the explorer exactly which sibling schedules exist: for every
decision point *beyond* the plan (where FIFO picked index 0), every
alternative index is a child plan.

Pruning: reordering alternative *j* ahead of candidates ``0..j-1`` can
only matter if *j*'s callback interferes with at least one of the
callbacks it overtakes.  Interference is decided statically from the
flow analysis' effect sets (:mod:`.independence`); a fully independent
alternative is skipped, which is the classic persistent-set/DPOR
argument specialised to "deviate once from FIFO, then recurse".

Counterexamples replay from a *decision string* —

    ``v1:<seed>:<i0.i1.i2...>``

(the plan, dot-separated; empty after the last colon for the FIFO
schedule).  The format is stable; scenario name and commutation window
travel as ``repro explore`` flags next to it.  Replaying a decision
string with the same scenario, seed and window reproduces the identical
event sequence, trace digest stream, and oracle verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ...netsim.trace import ScheduleTrace
from .independence import IndependenceOracle
from .oracles import OracleViolation, check_quiescence
from .policy import PlanPolicy
from .scenarios import SCENARIOS, ScenarioFn, ScenarioRun

DECISION_FORMAT_VERSION = "v1"


def format_decisions(seed: int, plan: Sequence[int]) -> str:
    """Encode a plan as a stable, replayable decision string."""
    return (
        f"{DECISION_FORMAT_VERSION}:{seed}:"
        + ".".join(str(i) for i in plan)
    )


def parse_decisions(text: str) -> tuple:
    """Decode a decision string into ``(seed, plan)``."""
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != DECISION_FORMAT_VERSION:
        raise ValueError(
            f"bad decision string {text!r}: expected "
            f"'{DECISION_FORMAT_VERSION}:<seed>:<i0.i1...>'"
        )
    try:
        seed = int(parts[1])
        plan = [int(p) for p in parts[2].split(".") if p != ""]
    except ValueError as exc:
        raise ValueError(f"bad decision string {text!r}: {exc}") from None
    if any(i < 0 for i in plan):
        raise ValueError(f"bad decision string {text!r}: negative index")
    return seed, plan


@dataclass
class Counterexample:
    """A schedule that broke an oracle, plus everything needed to replay it."""

    decisions: str
    plan: List[int]
    violations: List[OracleViolation]
    digest: str
    events: int
    #: decision string of the delta-debugged plan, when minimization ran.
    minimized: Optional[str] = None


@dataclass
class ExplorationResult:
    """Outcome of one bounded exploration."""

    seed: int
    budget: int
    schedules_run: int = 0
    unique_schedules: int = 0
    pruned: int = 0
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


class Explorer:
    """Breadth-first bounded exploration of a scenario's schedule space.

    Breadth-first order means every single-deviation schedule is tried
    before any double-deviation one — shallow bugs (one mis-ordered
    pair) are found early, and the counterexamples it emits are already
    near-minimal.
    """

    def __init__(
        self,
        scenario: ScenarioFn,
        seed: int,
        window: float = 0.0,
        independence: Optional[IndependenceOracle] = None,
        oracle: Callable[[ScenarioRun], List[OracleViolation]] = check_quiescence,
    ):
        self.scenario = scenario
        self.seed = seed
        self.window = window
        self.independence = independence or IndependenceOracle()
        self.oracle = oracle

    # ----------------------------------------------------------- execution

    def execute(self, plan: Sequence[int]) -> ScenarioRun:
        """Run the scenario once under the given plan."""
        trace = ScheduleTrace()
        policy = PlanPolicy(plan, window=self.window)
        return self.scenario(self.seed, policy=policy, trace=trace)

    def replay(self, decisions: str) -> ScenarioRun:
        """Run the schedule a decision string describes (seed included)."""
        seed, plan = parse_decisions(decisions)
        trace = ScheduleTrace()
        policy = PlanPolicy(plan, window=self.window)
        return self.scenario(seed, policy=policy, trace=trace)

    # ----------------------------------------------------------- expansion

    def _children(self, plan: Sequence[int], trace: ScheduleTrace, result):
        """Sibling plans deviating once from FIFO beyond ``plan``."""
        children: List[List[int]] = []
        decisions = trace.decisions
        for d in range(len(plan), len(decisions)):
            options = decisions[d].options
            prefix = [decisions[i].chosen for i in range(d)]
            for j in range(1, len(options)):
                label = options[j][2]
                if all(
                    self.independence.independent(label, options[i][2])
                    for i in range(j)
                ):
                    # Overtakes only events it commutes with: same
                    # behaviour as the FIFO order, prune the branch.
                    result.pruned += 1
                    continue
                children.append(prefix + [j])
        return children

    # -------------------------------------------------------------- search

    def explore(self, budget: int) -> ExplorationResult:
        """Execute up to ``budget`` schedules; stop at the first violation."""
        result = ExplorationResult(seed=self.seed, budget=budget)
        queue = deque([[]])
        seen_digests = set()
        while queue and result.schedules_run < budget:
            plan = queue.popleft()
            run = self.execute(plan)
            result.schedules_run += 1
            digest = run.trace.digest()
            fresh = digest not in seen_digests
            seen_digests.add(digest)
            violations = self.oracle(run)
            if violations:
                result.counterexamples.append(Counterexample(
                    decisions=format_decisions(self.seed, plan),
                    plan=list(plan),
                    violations=violations,
                    digest=digest,
                    events=len(run.trace.events),
                ))
                break
            if fresh:
                queue.extend(self._children(plan, run.trace, result))
        result.unique_schedules = len(seen_digests)
        return result

    # -------------------------------------------------------- minimization

    def minimize(self, counterexample: Counterexample, budget: int = 64) -> str:
        """Delta-debug a counterexample's plan; returns a decision string."""
        plan = minimize_plan(
            lambda p: bool(self.oracle(self.execute(p))),
            counterexample.plan,
            budget=budget,
        )
        minimized = format_decisions(self.seed, plan)
        counterexample.minimized = minimized
        return minimized


def minimize_plan(
    still_fails: Callable[[List[int]], bool],
    plan: Sequence[int],
    budget: int = 64,
) -> List[int]:
    """ddmin over a failing plan's non-zero deviations.

    The trailing-FIFO suffix (zero entries) carries no information, so
    the candidate space is the set of *deviations* (non-zero entries);
    a candidate keeps a subset of them and zeroes the rest.  Classic
    ddmin: try removing chunks of decreasing size, restart whenever a
    removal still fails, stop at granularity 1 or when the run budget
    is spent.  Returns the smallest failing plan found (the input plan
    itself if it does not reproduce).
    """

    def strip(candidate: List[int]) -> List[int]:
        while candidate and candidate[-1] == 0:
            candidate.pop()
        return candidate

    base = strip(list(plan))
    if not base:
        return base
    positions = [i for i, v in enumerate(base) if v != 0]

    def candidate_for(keep) -> List[int]:
        return strip([v if i in keep else 0 for i, v in enumerate(base)])

    runs = 0
    chunks = 2
    while len(positions) >= 2 and runs < budget:
        size = max(1, len(positions) // chunks)
        reduced = False
        for start in range(0, len(positions), size):
            removed = set(positions[start:start + size])
            keep = [p for p in positions if p not in removed]
            if not keep:
                continue
            runs += 1
            if still_fails(candidate_for(set(keep))):
                positions = keep
                chunks = max(2, chunks - 1)
                reduced = True
                break
            if runs >= budget:
                break
        if not reduced:
            if size <= 1:
                break
            chunks = min(len(positions), chunks * 2)
    return candidate_for(set(positions))


# -------------------------------------------------------------------- CLI


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default="churn",
        help="scenario to explore (default: churn)",
    )
    parser.add_argument(
        "--budget", type=int, default=50,
        help="maximum number of schedules to execute (default: 50)",
    )
    parser.add_argument("--seed", type=int, default=7, help="scenario seed")
    parser.add_argument(
        "--window", type=float, default=0.0,
        help=(
            "commutation window: events within this much of the earliest "
            "pending timestamp are co-enabled (default: 0, same-time only)"
        ),
    )
    parser.add_argument(
        "--replay", metavar="DECISIONS",
        help=(
            "replay one schedule from a decision string "
            "('v1:<seed>:<i0.i1...>'; pair with the same --scenario and "
            "--window it was found under) instead of exploring"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a machine-readable JSON report",
    )


def _violations(violations: List[OracleViolation]) -> List[dict]:
    return [{"kind": v.kind, "detail": v.detail} for v in violations]


def _replay(args: argparse.Namespace) -> int:
    try:
        seed, plan = parse_decisions(args.replay)
    except ValueError as exc:
        print(f"explore: error: {exc}", file=sys.stderr)
        return 2
    explorer = Explorer(SCENARIOS[args.scenario], seed=seed, window=args.window)
    run = explorer.execute(plan)
    violations = check_quiescence(run)
    payload = {
        "scenario": args.scenario,
        "decisions": format_decisions(seed, plan),
        "digest": run.trace.digest(),
        "events": len(run.trace.events),
        "decision_points": len(run.trace.decisions),
        "violations": _violations(violations),
    }
    if args.as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"replayed {payload['decisions']} on scenario "
            f"{args.scenario!r}: {payload['events']} events, "
            f"{payload['decision_points']} decision points"
        )
        print(f"digest: {payload['digest']}")
        for violation in violations:
            print(f"  {violation}")
        if not violations:
            print("all quiescence oracles hold")
    return 1 if violations else 0


def run(args: argparse.Namespace) -> int:
    """``repro explore``: 0 when every explored (or replayed) schedule
    satisfies the oracles, 1 on a counterexample, 2 on misuse."""
    if args.budget <= 0:
        print("explore: error: --budget must be positive", file=sys.stderr)
        return 2
    if args.replay:
        return _replay(args)

    explorer = Explorer(
        SCENARIOS[args.scenario], seed=args.seed, window=args.window
    )
    result = explorer.explore(args.budget)
    for cex in result.counterexamples:
        explorer.minimize(cex)

    if args.as_json:
        print(json.dumps({
            "scenario": args.scenario,
            "seed": result.seed,
            "budget": result.budget,
            "schedules_run": result.schedules_run,
            "unique_schedules": result.unique_schedules,
            "pruned": result.pruned,
            "counterexamples": [
                {
                    "decisions": c.decisions,
                    "minimized": c.minimized,
                    "digest": c.digest,
                    "events": c.events,
                    "violations": _violations(c.violations),
                }
                for c in result.counterexamples
            ],
        }, indent=2))
        return 0 if result.ok else 1
    print(
        f"scenario {args.scenario!r} (seed {result.seed}): explored "
        f"{result.schedules_run}/{result.budget} schedules "
        f"({result.unique_schedules} unique, {result.pruned} branches "
        f"pruned as independent)"
    )
    if result.ok:
        print("no schedule violated the quiescence oracles")
    for cex in result.counterexamples:
        print(f"counterexample ({len(cex.violations)} violations):")
        for violation in cex.violations:
            print(f"  {violation}")
        print(f"  replay:    --scenario {args.scenario} "
              f"--window {args.window:g} --replay '{cex.decisions}'")
        if cex.minimized != cex.decisions:
            print(f"  minimized: --scenario {args.scenario} "
                  f"--window {args.window:g} --replay '{cex.minimized}'")
    return 0 if result.ok else 1
