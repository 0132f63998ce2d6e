"""The paper's evaluation artifacts, each defined once.

:data:`ARTIFACTS` has one row per artifact of §5 (the no-diversion
baseline, Tables 2-4, Figures 2-8) and per extension and ablation: the
``repro`` command that prints it, the ``benchmarks/results/<stem>.txt``
that holds it, ``run(*scale)`` with the parameters EXPERIMENTS.md
documents, and ``render(result)``.  ``repro <command>`` and ``pytest
benchmarks/ --benchmark-only`` are both loops over this table, so at
:data:`DEFAULT_SCALE` they emit the same bytes: tier-1 compares the cheap
rows with the committed files, CI's ``paper`` job all of them.
"""

from __future__ import annotations

import math
import random
import statistics
from functools import lru_cache
from typing import Any, Callable, Dict, NamedTuple

from ..analysis import (
    ascii_plot,
    format_caching_summary,
    format_curve,
    format_sweep_table,
    format_table,
    summarize_run,
)
from ..erasure import ReedSolomonCode, storage_overhead
from ..netsim import PAPER_PER_HOP_MS
from . import caching, churn, locality, recovery, security, storage


class Scale(NamedTuple):
    """The three knobs every driver takes first, in the drivers' order."""

    n_nodes: int
    capacity_scale: float  # relative to Table 1
    seed: int


#: The scale of the committed ``benchmarks/results`` (the paper: 2250
#: nodes at 1.0).  Argparse's defaults and ``benchmarks/conftest.py``
#: both read this one constant.
DEFAULT_SCALE = Scale(n_nodes=100, capacity_scale=0.25, seed=42)


class Artifact(NamedTuple):
    """One row: where an artifact is kept, how it is run and drawn."""

    stem: str  # benchmarks/results/<stem>.txt
    run: Callable[[int, float, int], Any]  # run(*scale) -> result
    render: Callable[[Any], str]
    #: What the row fixes by itself, whatever the scale says; shown by
    #: ``repro list`` so that an ignored flag is stated, not silent.
    fixes: str = ""


#: Figures 4, 5 and 6 are read off the *same* experiment (the standard
#: d1 / l=32 / t_pri=0.1 / t_div=0.05 web-trace run), so a process that
#: draws several of them runs it once.
_standard_run = lru_cache(maxsize=1)(storage.run_standard)


def _run_erasure(_n_nodes: int, _capacity_scale: float, seed: int) -> dict:
    """§3.6: RS(8+4) over 16 KiB shards, decoded from the worst-case loss
    pattern (all parity needed), and the storage-overhead trade-off
    against k whole-file replicas at matched fault tolerance."""
    n_data, n_parity, shard = 8, 4, 16 * 1024
    code = ReedSolomonCode(n_data, n_parity)
    rng = random.Random(seed)
    data = [rng.randbytes(shard) for _ in range(n_data)]
    shards = code.encode(data)
    surviving = {i: s for i, s in enumerate(shards) if i >= n_parity}
    return {
        "data": data,
        "decoded": code.decode(surviving),
        "overheads": {
            (k, nd, np_): storage_overhead(k, nd, np_)
            for k, nd, np_ in [(3, 8, 2), (5, 8, 4), (7, 10, 6)]
        },
    }


# ------------------------------------------------------------- renderers


def _table(title, headers, rows) -> Callable[[Any], str]:
    """The common renderer: ``rows(result)`` under fixed headers.  ``title``
    is a string or, where it quotes the result, a function of it."""
    return lambda result: format_table(
        headers, rows(result), title=title(result) if callable(title) else title
    )


def _render_table2(sweep) -> str:
    cfg = sweep.runs[0].config
    return format_sweep_table(
        sweep, key_field="dist", key_label="Dist",
        title=(
            "Table 2 - effects of storage distribution and leaf-set size\n"
            f"(rows: l=16 block then l=32 block; {cfg.n_nodes} nodes, "
            f"capacity x{cfg.capacity_scale}; paper used 2250 nodes)"
        ),
        paper_key=lambda row: (row["dist"], row["l"]),
    )


def _threshold_sweep(field: str, figure: str, title: str) -> Callable[[Any], str]:
    """Tables 3 and 4, each with its cumulative-failure figure (2 and 3)."""

    def render(sweep) -> str:
        curves = storage.failure_curves(sweep, field)
        blocks = [
            format_sweep_table(sweep, key_field=field, key_label=field, title=title,
                               paper_key=lambda row: row[field]),
            "",
            f"{figure} - cumulative failure ratio vs. utilization:",
        ]
        for value, curve in curves.items():
            pts = [(round(u * 100, 1), round(r, 5)) for u, r in curve]
            blocks.append(format_curve(pts, ["util %", "cum. failure ratio"],
                                       title=f"  {field}={value}", max_points=8))
        blocks.append(ascii_plot(
            {f"{field}={v}": [(u * 100, max(r, 1e-5)) for u, r in c]
             for v, c in curves.items()},
            title=f"{figure} (log-y, as in the paper):",
            x_label="utilization %", y_label="cumulative failure ratio", logy=True,
        ))
        return "\n".join(blocks)

    return render


def _render_figure4(run) -> str:
    pts = [
        (round(u * 100, 1), round(r1, 4), round(r2, 4), round(r3, 4), round(f, 4))
        for u, r1, r2, r3, f in run.stats.file_diversion_curves()
    ]
    return format_curve(
        pts, ["util %", "1 redirect", "2 redirects", "3 redirects", "failures"],
        title="Figure 4 - cumulative ratio of file diversions and insert failures",
        max_points=14,
    )


def _render_figure5(run) -> str:
    curve = run.stats.replica_diversion_curve()
    text = format_curve(
        [(round(u * 100, 1), round(r, 4)) for u, r in curve],
        ["util %", "diverted replica ratio"],
        title="Figure 5 - cumulative ratio of replica diversions vs. utilization",
        max_points=14,
    )
    plot = ascii_plot(
        {"diverted ratio": [(u * 100, r) for u, r in curve]},
        title="Figure 5:",
        x_label="utilization %", y_label="cumulative replica-diversion ratio",
    )
    return text + "\n\n" + plot


def _failed_size_rows(scatter) -> list:
    """Figures 6 and 7: the failed-insert scatter per utilization decile."""
    rows = []
    for lo in range(0, 100, 10):
        bucket = [s for u, s in scatter if lo <= u * 100 < lo + 10]
        if bucket:
            rows.append(
                [f"{lo}-{lo + 10}%", len(bucket), min(bucket), int(sum(bucket) / len(bucket))]
            )
    return rows


_FAILED_SIZE_HEADERS = ["util bucket", "# failed", "min failed size (B)", "mean failed size (B)"]


def _render_figure8(results) -> str:
    def series(policies, pick):
        return {p: [(u * 100, pick(h, hp)) for u, h, hp, n in results[p].curve if n > 50]
                for p in policies}

    blocks = [format_caching_summary(results, title="Figure 8 - caching policies (whole run)")]
    for policy in ("gds", "lru", "none"):
        curve = [
            (round(u * 100), round(h, 3), round(hp, 2), n)
            for u, h, hp, n in results[policy].curve
            if n > 50
        ]
        blocks.append(format_curve(curve, ["util %", "hit ratio", "mean hops", "lookups"],
                                   title=f"  policy={policy}", max_points=10))
    blocks.append(ascii_plot(
        series(("gds", "lru"), lambda h, hp: h),
        title="Figure 8a - global cache hit ratio vs. utilization:",
        x_label="utilization %", y_label="hit ratio",
    ))
    blocks.append(ascii_plot(
        series(("gds", "lru", "none"), lambda h, hp: hp),
        title="Figure 8b - mean routing hops vs. utilization:",
        x_label="utilization %", y_label="mean hops",
    ))
    return "\n".join(blocks)


def _security_rows(results) -> list:
    det = {r.malicious_fraction: r for r in results if not r.randomized}
    ran = {r.malicious_fraction: r for r in results if r.randomized}
    return [
        [f"{f:.0%}", round(det[f].success_ratio, 3), round(ran[f].success_ratio, 3)]
        for f in sorted(det)
    ]


def _balance_rows(runs) -> list:
    rows = []
    for label, run in runs.items():
        utils = storage.node_utilizations(run)
        rows.append([
            label, round(run.utilization * 100, 1), round(100 * min(utils), 1),
            round(100 * statistics.median(utils), 1), round(100 * max(utils), 1),
            round(100 * statistics.pstdev(utils), 2),
        ])
    return rows


# ----------------------------------------------------------------- table

#: ``repro <command>`` -> row.  The extension drivers run on a smaller
#: (``n_nodes // 2``, floored) or larger (x2, x3) overlay than the §5
#: tables; those are the sizes EXPERIMENTS.md documents.
ARTIFACTS: Dict[str, Artifact] = {
    "baseline": Artifact(
        "baseline_no_diversion",
        storage.run_baseline_no_diversion,
        _table(
            lambda run: "Baseline (no diversion): " + summarize_run(run),
            ["metric", "measured", "paper"],
            lambda run: [
                ["insert failures %", run.fail_pct, storage.PAPER_BASELINE["fail_pct"]],
                ["final utilization %", run.utilization * 100, storage.PAPER_BASELINE["util_pct"]],
            ],
        ),
    ),
    "table2": Artifact("table2_distributions", storage.run_table2, _render_table2),
    "table3": Artifact(
        "table3_figure2_tpri",
        storage.run_table3,
        _threshold_sweep(
            "t_pri", "Figure 2",
            "Table 3 - insertion statistics and utilization as t_pri varies (t_div=0.05)",
        ),
    ),
    "table4": Artifact(
        "table4_figure3_tdiv",
        storage.run_table4,
        _threshold_sweep(
            "t_div", "Figure 3",
            "Table 4 - insertion statistics and utilization as t_div varies (t_pri=0.1)",
        ),
    ),
    "figure4": Artifact("figure4_file_diversion", _standard_run, _render_figure4),
    "figure5": Artifact("figure5_replica_diversion", _standard_run, _render_figure5),
    "figure6": Artifact(
        "figure6_web_failures",
        _standard_run,
        _table(
            "Figure 6 - failed insertions vs. utilization (web workload)\n"
            "paper shape: smaller files only start failing at high utilization",
            _FAILED_SIZE_HEADERS,
            lambda run: _failed_size_rows(run.stats.failed_insert_sizes()),
        ),
    ),
    "figure7": Artifact(
        "figure7_fs_failures",
        storage.run_figure7,  # -> (run, scatter, failure curve)
        _table(
            lambda result: (
                "Figure 7 - failed insertions vs. utilization (filesystem workload,\n"
                f"capacities x10): final util {result[0].utilization * 100:.1f}%, "
                f"success {result[0].success_pct:.2f}%"
            ),
            _FAILED_SIZE_HEADERS,
            lambda result: _failed_size_rows(result[1]),
        ),
    ),
    "figure8": Artifact("figure8_caching", caching.run_figure8, _render_figure8),
    "availability": Artifact(
        "extension_availability",
        lambda n_nodes, capacity_scale, seed: churn.run_availability_sweep(
            k_values=[1, 2, 3, 5], fail_fractions=[0.05, 0.10, 0.20],
            n_nodes=max(40, n_nodes // 2), capacity_scale=capacity_scale,
            n_files=400, seed=seed,
        ),
        _table(
            "Extension - availability vs. replication factor (why k=5)",
            ["k", "simultaneous failures", "available %", "after repair %"],
            lambda results: [
                [r.k, f"{r.fail_fraction:.0%}", round(100 * r.availability, 2),
                 round(100 * r.availability_after_repair, 2)]
                for r in results
            ],
        ),
    ),
    "churn": Artifact(
        "extension_churn",
        lambda n_nodes, capacity_scale, seed: churn.run_churn_experiment(
            n_nodes=max(40, n_nodes // 2), capacity_scale=capacity_scale,
            n_files=300, rounds=40, seed=seed,
        ),
        _table(
            lambda result: (
                "Extension - §5's churn verification: invariants audited during "
                f"{result.rounds} rounds of failures/recoveries/joins "
                f"({result.audits_passed}/{result.audits_total} audits clean, "
                f"{result.final_available}/{result.files} files available)"
            ),
            ["round", "action", "nodes", "audit ok", "degraded"],
            lambda result: [
                [t["round"], t["action"], t["nodes"], t["audit_ok"], t["degraded"]]
                for t in result.timeline
            ],
        ),
    ),
    "recovery": Artifact(
        "extension_recovery",
        lambda n_nodes, capacity_scale, seed: recovery.run_recovery_window(
            detection_delays=[0.0, 1.0, 5.0, 20.0, 50.0],
            n_nodes=max(40, n_nodes // 2), k=3, n_files=300,
            capacity_scale=capacity_scale, crash_fraction=0.5, seed=seed,
        ),
        _table(
            "Extension - availability vs. failure-detection window "
            "(crash interarrival = 1.0; crashes destroy the node's disk)",
            ["detection delay T", "crashes", "available %", "degraded"],
            lambda results: [
                [r.detection_delay, r.crashes, round(100 * r.availability, 2), r.degraded]
                for r in results
            ],
        ),
    ),
    "locality": Artifact(
        "extension_locality",
        lambda n_nodes, capacity_scale, seed: (
            locality.run_replica_locality(
                n_nodes=2 * n_nodes, k=5, n_files=150, capacity_scale=1.0, seed=seed
            ),
            locality.run_route_stretch(n_nodes=2 * n_nodes, seed=seed),
        ),
        _table(
            lambda result: (
                f"Extension - replica locality over {result[0].lookups} lookups, "
                f"k={result[0].k}, {result[1].n_nodes} nodes"
            ),
            ["metric", "measured", "paper ([27])"],
            lambda result: [
                ["nearest replica share", round(result[0].rank_share(0), 3), 0.76],
                ["top-2 replica share", round(result[0].rank_share(1), 3), 0.92],
                ["uniform baseline (1/k)", round(result[0].random_baseline, 3), 0.20],
                ["route stretch", round(result[1].mean_stretch, 3), 1.5],
                ["mean route hops", round(result[1].mean_hops, 3), "~log16 N"],
            ],
        ),
        fixes="capacity scale 1.0: --scale ignored",
    ),
    "security": Artifact(
        "extension_security",
        lambda n_nodes, capacity_scale, seed: security.run_malicious_routing(
            malicious_fractions=[0.05, 0.10, 0.20], n_nodes=3 * n_nodes,
            n_files=100, lookups_per_file=5, retries=6, seed=seed,
        ),
        _table(
            lambda results: (
                "Extension - lookup success under message-dropping nodes "
                f"({results[0].retries} retries per lookup, §2.3)"
            ),
            ["malicious nodes", "deterministic", "randomized"],
            _security_rows,
        ),
        fixes="capacity scale 1.0 (the driver's default): --scale ignored",
    ),
    "balance": Artifact(
        "extension_balance",
        storage.run_balance,
        _table(
            "Extension - per-node utilization balance (the §3 objective)",
            ["management", "global util %", "min node %", "median node %",
             "max node %", "stdev %"],
            _balance_rows,
        ),
    ),
    "latency": Artifact(
        "extension_latency",
        lambda n_nodes, capacity_scale, seed: caching.run_caching_sweep(
            "cache_policy", ["gds", "none"], caching.lookup_latency_percentiles,
            n_nodes=max(60, n_nodes // 2), capacity_scale=capacity_scale, seed=seed,
        ),
        _table(
            "Extension - estimated lookup latency "
            f"(per-hop {PAPER_PER_HOP_MS:.0f} ms anchor from the paper's prototype)",
            ["policy", "p50 ms", "p90 ms", "p99 ms"],
            lambda latencies: [
                [policy, round(p[50], 1), round(p[90], 1), round(p[99], 1)]
                for policy, p in latencies.items()
            ],
        ),
    ),
    "loadbalance": Artifact(
        "extension_loadbalance",
        lambda n_nodes, capacity_scale, seed: caching.run_caching_sweep(
            "cache_policy", ["gds", "none"], caching.query_load_balance,
            n_nodes=max(60, n_nodes // 2), capacity_scale=capacity_scale, seed=seed,
            zipf_alpha=1.0,  # a hotter head stresses the balance more
        ),
        _table(
            "Extension - query load balance with and without caching (§4 goal)",
            ["policy", "responders", "max load", "max/mean", "gini", "top-5 share"],
            lambda stats: [
                [policy, s.responders, s.max_load, round(s.max_to_mean, 2),
                 round(s.gini, 3), round(s.top5_share, 3)]
                for policy, s in stats.items()
            ],
        ),
    ),
    "pastry_routing": Artifact(
        "pastry_routing",
        lambda *_scale: locality.run_pastry_routing([100, 400, 1000], seed=5),
        _table(
            "Pastry routing - hop counts vs. the log bound, and locality stretch",
            ["nodes", "mean hops", "max hops", "ceil(log16 N)", "route stretch"],
            lambda results: [
                [n, round(r.mean_hops, 2), r.max_hops, math.ceil(math.log(n, 16)),
                 round(r.mean_stretch, 2)]
                for n, r in results.items()
            ],
        ),
        fixes="100/400/1000 nodes, seed 5: --nodes, --scale and --seed ignored",
    ),
    "ablation_cache_fraction": Artifact(
        "ablation_cache_fraction",
        lambda n_nodes, capacity_scale, seed: caching.run_caching_sweep(
            "cache_fraction", [0.01, 0.25, 1.0],
            n_nodes=max(40, n_nodes // 2), seed=seed,
        ),
        _table(
            "Ablation - cache insertion fraction c (paper fixes c=1)",
            ["c", "hit ratio", "mean hops", "final util %"],
            lambda results: [
                [c, r.hit_ratio, r.mean_hops, r.utilization * 100]
                for c, r in sorted(results.items())
            ],
        ),
        fixes="capacity scale 0.25 (CachingRunConfig's default): --scale ignored",
    ),
    "ablation_divert_policy": Artifact(
        "ablation_divert_policy",
        storage.run_divert_policy_ablation,
        _table(
            "Ablation - diversion-target policy (paper uses max free space)",
            ["divert target", "Succeed%", "ReplDiv%", "Util%"],
            lambda runs: [
                [policy, r.success_pct, r.replica_diversion_ratio * 100, r.utilization * 100]
                for policy, r in runs.items()
            ],
        ),
    ),
    "ablation_erasure": Artifact(
        "ablation_erasure",
        _run_erasure,
        _table(
            "§3.6 ablation - replication vs. Reed-Solomon storage overhead",
            ["config", "repl tolerates", "RS tolerates", "repl overhead x",
             "RS overhead x", "savings x"],
            lambda result: [
                [f"k={k} vs RS({nd}+{np_})", cmp["replication_tolerates"],
                 cmp["rs_tolerates"], cmp["replication_overhead"],
                 round(cmp["rs_overhead"], 2), round(cmp["savings_factor"], 2)]
                for (k, nd, np_), cmp in result["overheads"].items()
            ],
        ),
        fixes="RS(8+4) on 16 KiB shards: --nodes and --scale ignored",
    ),
    "ablation_leafset": Artifact(
        "ablation_leafset",
        lambda *scale: storage.run_table2(*scale, dists=["d1"], leaf_sizes=[8, 16, 32, 48]),
        _table(
            "Ablation - leaf-set size sweep on d1 (paper: gains saturate at l=32)",
            ["l", "Succeed%", "FileDiv%", "ReplDiv%", "Util%"],
            lambda sweep: [
                [r["l"], r["succeed_pct"], r["file_diversion_pct"],
                 r["replica_diversion_pct"], r["util_pct"]]
                for r in sweep.rows
            ],
        ),
    ),
}
