"""Figure 7: insertion failures by file size vs. utilization (filesystem
workload, node capacities x10).

Paper shape: same qualitative picture as Figure 6 on a much heavier-tailed
size distribution — failure sizes an order of magnitude larger, overall
failure ratio still small until the system is nearly full.
"""

from repro.workloads.filesystem import PAPER_MEDIAN_BYTES


def test_figure7(paper_artifact):
    run, scatter, curve = paper_artifact("figure7")

    assert run.config.workload == "fs"
    assert scatter, "a saturating run must produce failures"
    # Shape: failed files are large relative to the fs median.
    sizes = [s for _, s in scatter]
    median_failed = sorted(sizes)[len(sizes) // 2]
    assert median_failed > PAPER_MEDIAN_BYTES
    # Shape: the success ratio remains high overall.
    assert run.success_pct > 85.0
