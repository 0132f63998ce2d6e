"""Storage-management experiments: the baseline, Tables 2-4, Figures 2-7,
and the diversion ablation and per-node balance extension built on them.

Every function returns a result object holding both the paper-style table
rows and the per-utilization curves, plus the paper's published values for
side-by-side comparison in EXPERIMENTS.md and the benchmark output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from .harness import StorageRunConfig, StorageRunResult, run_storage_trace

#: Values published in the paper, for shape comparison.
PAPER_BASELINE = {"fail_pct": 51.1, "util_pct": 60.8}
PAPER_TABLE2 = {
    # (dist, l): (succeed %, fail %, file div %, replica div %, util %)
    ("d1", 16): (97.6, 2.4, 8.4, 14.8, 94.9),
    ("d2", 16): (97.8, 2.2, 8.0, 13.7, 94.8),
    ("d3", 16): (96.9, 3.1, 8.2, 17.7, 94.0),
    ("d4", 16): (94.5, 5.5, 10.2, 22.2, 94.1),
    ("d1", 32): (99.3, 0.7, 3.5, 16.1, 98.2),
    ("d2", 32): (99.4, 0.6, 3.3, 15.0, 98.1),
    ("d3", 32): (99.4, 0.6, 3.1, 18.5, 98.1),
    ("d4", 32): (97.9, 2.1, 4.1, 23.3, 99.3),
}
PAPER_TABLE3 = {
    # t_pri: (succeed %, fail %, file div %, replica div %, util %)
    0.5: (88.02, 11.98, 4.43, 18.80, 99.7),
    0.2: (96.57, 3.43, 4.41, 18.13, 99.4),
    0.1: (99.34, 0.66, 3.47, 16.10, 98.2),
    0.05: (99.73, 0.27, 2.17, 12.86, 97.4),
}
PAPER_TABLE4 = {
    # t_div: (succeed %, fail %, file div %, replica div %, util %)
    0.1: (93.72, 6.28, 5.07, 13.81, 99.8),
    0.05: (99.33, 0.66, 3.47, 16.10, 98.2),
    0.01: (99.76, 0.24, 0.53, 15.20, 93.1),
    0.005: (99.57, 0.43, 0.53, 14.72, 90.5),
}


@dataclass
class SweepResult:
    """Rows of a Table 2/3/4-style sweep plus the underlying runs."""

    rows: List[dict] = field(default_factory=list)
    runs: List[StorageRunResult] = field(default_factory=list)
    paper: Dict = field(default_factory=dict)


#: Storage management switched off: nothing diverted, no re-salted retry.
_NO_DIVERSION = {"t_pri": 1.0, "t_div": 0.0, "max_insert_attempts": 1}


def _base_config(**overrides) -> StorageRunConfig:
    return replace(StorageRunConfig(), **overrides)


def _sweep(paper: Dict, configs) -> SweepResult:
    """Play one trace per config; one table row per run."""
    result = SweepResult(paper=paper)
    for cfg in configs:
        run = run_storage_trace(cfg)
        if len(result.rows) == len(result.runs):  # rows/runs in lockstep
            result.runs.append(run)
            result.rows.append(run.table_row())
    return result


# --------------------------------------------------------------- §5.1 intro


def run_baseline_no_diversion(
    n_nodes: int = 100, capacity_scale: float = 0.25, seed: int = 0
) -> StorageRunResult:
    """Replica and file diversion disabled (t_pri=1, t_div=0, no re-salt).

    The paper: 51.1% of inserts failed and final utilization was only
    60.8%, "clearly demonstrating the need for storage management".
    """
    cfg = _base_config(
        n_nodes=n_nodes, capacity_scale=capacity_scale, seed=seed, **_NO_DIVERSION
    )
    return run_storage_trace(cfg)


# ------------------------------------------------------------------ Table 2


def run_table2(
    n_nodes: int = 100,
    capacity_scale: float = 0.25,
    seed: int = 0,
    dists: Optional[List[str]] = None,
    leaf_sizes: Optional[List[int]] = None,
) -> SweepResult:
    """Table 2: storage distributions d1-d4 x leaf-set size {16, 32}."""
    dists = dists or ["d1", "d2", "d3", "d4"]
    leaf_sizes = leaf_sizes or [16, 32]
    return _sweep(PAPER_TABLE2, (
        _base_config(n_nodes=n_nodes, capacity_scale=capacity_scale, dist=dist, l=l, seed=seed)
        for l in leaf_sizes
        for dist in dists
    ))


# ------------------------------------------------------- Table 3 / Figure 2


def run_table3(
    n_nodes: int = 100,
    capacity_scale: float = 0.25,
    seed: int = 0,
    t_pris: Optional[List[float]] = None,
) -> SweepResult:
    """Table 3 + Figure 2: sweep t_pri with t_div = 0.05.

    Larger t_pri lets nodes fill with big files early, raising final
    utilization but also the failure rate at low utilization.
    """
    t_pris = t_pris or [0.5, 0.2, 0.1, 0.05]
    return _sweep(PAPER_TABLE3, (
        _base_config(
            n_nodes=n_nodes, capacity_scale=capacity_scale,
            t_pri=t_pri, t_div=min(0.05, t_pri), seed=seed,
        )
        for t_pri in t_pris
    ))


# ------------------------------------------------------- Table 4 / Figure 3


def run_table4(
    n_nodes: int = 100,
    capacity_scale: float = 0.25,
    seed: int = 0,
    t_divs: Optional[List[float]] = None,
) -> SweepResult:
    """Table 4 + Figure 3: sweep t_div with t_pri = 0.1."""
    t_divs = t_divs or [0.1, 0.05, 0.01, 0.005]
    return _sweep(PAPER_TABLE4, (
        _base_config(
            n_nodes=n_nodes, capacity_scale=capacity_scale, t_pri=0.1, t_div=t_div, seed=seed
        )
        for t_div in t_divs
    ))


def failure_curves(sweep: SweepResult, field: str) -> Dict[float, List[tuple]]:
    """Figures 2 and 3: cumulative failure ratio vs. utilization, one curve
    per value of the swept threshold (``field`` is "t_pri" or "t_div")."""
    return {
        getattr(run.config, field): run.stats.cumulative_failure_curve()
        for run in sweep.runs
    }


# ------------------------------------------------------------- Figures 4-7


def run_standard(
    n_nodes: int = 100, capacity_scale: float = 0.25, seed: int = 0
) -> StorageRunResult:
    """The paper's standard configuration: t_pri=0.1, t_div=0.05, l=32.

    Figures 4-6 are read off this one run's ``stats``.  Expect file
    diversions negligible below ~80% utilization, <~10% of stored
    replicas diverted at 80%, and failures heavily biased towards large
    files, the first mean-sized file rejected only above ~90%.
    """
    cfg = _base_config(n_nodes=n_nodes, capacity_scale=capacity_scale, seed=seed)
    return run_storage_trace(cfg)


def run_figure7(n_nodes: int = 100, capacity_scale: float = 0.25, seed: int = 0):
    """Figure 7: as Figure 6 but for the filesystem workload.

    The paper scales every node capacity by 10 for this experiment because
    the filesystem content is an order of magnitude larger, while the file
    trace itself is unscaled — so the file-size cap here stays tied to the
    *base* capacity scale, preserving the paper's max-file/node-capacity
    ratio.  Returns ``(run, scatter, failure_curve)``.
    """
    from ..workloads import filesystem as fs_stats

    cfg = _base_config(
        n_nodes=n_nodes,
        capacity_scale=capacity_scale * 10.0,
        max_file_bytes=max(1, int(fs_stats.PAPER_MAX_BYTES * capacity_scale)),
        workload="fs",
        seed=seed,
    )
    run = run_storage_trace(cfg)
    return run, run.stats.failed_insert_sizes(), run.stats.cumulative_failure_curve()


# ------------------------------------------------- ablation and extension


def run_divert_policy_ablation(
    n_nodes: int, capacity_scale: float, seed: int
) -> Dict[str, StorageRunResult]:
    """§3.3.1's max-free-space diversion target vs. a random eligible one."""
    base = _base_config(n_nodes=n_nodes, capacity_scale=capacity_scale, seed=seed)
    return {
        policy: run_storage_trace(replace(base, divert_target_policy=policy))
        for policy in ("max_free", "random")
    }


def run_balance(n_nodes: int, capacity_scale: float, seed: int) -> Dict[str, StorageRunResult]:
    """The standard run with diversion on and off, networks kept, so the
    per-node utilizations (the §3 balancing objective) can be read off."""
    base = _base_config(n_nodes=n_nodes, capacity_scale=capacity_scale, seed=seed)
    return {
        "diversion": run_storage_trace(base, keep_network=True),
        "none": run_storage_trace(replace(base, **_NO_DIVERSION), keep_network=True),
    }


def node_utilizations(run: StorageRunResult) -> List[float]:
    """Per-node store utilization of a run that kept its network."""
    return [n.store.utilization() for n in run.network.nodes()]
