"""Figure 6: insertion failures by file size vs. utilization (web trace).

Paper shape: as utilization rises, ever-smaller files start failing, but
failures stay heavily biased to large files; a file of mean size is first
rejected only above ~90% utilization, and the overall failure ratio stays
tiny below 90%.
"""

from repro.workloads.web_proxy import PAPER_MEAN_BYTES


def test_figure6(paper_artifact):
    run = paper_artifact("figure6")
    scatter = run.stats.failed_insert_sizes()

    assert scatter, "a saturating run must produce failures"
    # Shape 1: failures skew large relative to the trace mean.
    sizes = [s for _, s in scatter]
    assert sum(1 for s in sizes if s > PAPER_MEAN_BYTES) / len(sizes) > 0.5
    # Shape 2: the minimum failed size decreases as utilization grows.
    early = [s for u, s in scatter if u < 0.85]
    late = [s for u, s in scatter if u > 0.95]
    if early and late:
        assert min(late) <= min(early)
    # Shape 3: almost no failures below 80% utilization.
    below80 = [s for u, s in scatter if u < 0.80]
    assert len(below80) / max(1, run.stats.insert_attempts) < 0.02
