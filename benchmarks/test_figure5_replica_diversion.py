"""Figure 5: cumulative ratio of diverted replicas vs. storage utilization.

Paper shape: the diverted share of all stored replicas stays small —
below ~10% at 80% utilization — and grows smoothly towards ~16% as the
system saturates.
"""


def test_figure5(paper_artifact):
    run = paper_artifact("figure5")
    curve = run.stats.replica_diversion_curve()

    # Shape: moderate diverted share at 80% utilization...
    at80 = [r for u, r in curve if u <= 0.80]
    assert at80 and at80[-1] < 0.15
    # ...rising towards (but staying moderate at) saturation.
    assert curve[-1][1] < 0.40
    assert curve[-1][1] >= at80[-1] - 0.01
