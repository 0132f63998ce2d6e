"""Plain-text rendering of experiment results.

The benchmark harness prints these tables so that running
``pytest benchmarks/ --benchmark-only`` regenerates the paper's tables and
figure series as text, side by side with the published numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Render an ASCII table with right-aligned numeric columns."""
    str_rows = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        if v != 0.0 and abs(v) < 0.1:
            return f"{v:.4g}"  # keep small parameters (e.g. t_div=0.005) exact
        return f"{v:.2f}"
    return str(v)


def format_sweep_table(
    sweep,
    key_field: str,
    key_label: str,
    title: str,
    paper_key=None,
) -> str:
    """Render a Table 2/3/4-style sweep with the paper's values inline.

    ``paper_key`` maps a row dict to the key of ``sweep.paper`` holding the
    published tuple (succeed, fail, file div, replica div, util).
    """
    headers = [
        key_label,
        "Succeed%",
        "Fail%",
        "FileDiv%",
        "ReplDiv%",
        "Util%",
        "| paper:",
        "Succ%",
        "Util%",
    ]
    rows: List[list] = []
    for row in sweep.rows:
        paper = ("-", "-")
        if paper_key is not None:
            published = sweep.paper.get(paper_key(row))
            if published:
                paper = (published[0], published[4])
        rows.append(
            [
                row[key_field],
                row["succeed_pct"],
                row["fail_pct"],
                row["file_diversion_pct"],
                row["replica_diversion_pct"],
                row["util_pct"],
                "|",
                paper[0],
                paper[1],
            ]
        )
    return format_table(headers, rows, title=title)


def format_curve(
    curve: Sequence[Tuple],
    labels: Sequence[str],
    title: str = "",
    max_points: int = 12,
) -> str:
    """Render a sampled (x, y, ...) series as a small table."""
    if len(curve) > max_points:
        step = len(curve) / max_points
        sampled = [curve[int(i * step)] for i in range(max_points)] + [curve[-1]]
    else:
        sampled = list(curve)
    return format_table(labels, sampled, title=title)


def summarize_run(run) -> str:
    """One-line summary of a StorageRunResult.

    Outcome fields only: the line is part of a committed artifact, so it
    must not read ``elapsed_s`` or any other clock.
    """
    return (
        f"{run.config.workload} x {run.n_files} files on {run.config.n_nodes} nodes "
        f"({run.config.dist}, l={run.config.l}, t_pri={run.config.t_pri}, "
        f"t_div={run.config.t_div}): success={run.success_pct:.2f}% "
        f"util={run.utilization * 100:.1f}% "
        f"file_div={run.file_diversion_ratio * 100:.2f}% "
        f"replica_div={run.replica_diversion_ratio * 100:.2f}%"
    )


def format_caching_summary(results: Dict[str, object], title: str = "Figure 8") -> str:
    """Summary table for the Figure 8 policy comparison."""
    headers = ["policy", "hit ratio", "mean hops", "lookup ok", "final util"]
    rows = []
    for policy, res in results.items():
        rows.append(
            [
                policy,
                res.hit_ratio,
                res.mean_hops,
                res.lookup_success_ratio,
                res.utilization,
            ]
        )
    return format_table(headers, rows, title=title)
