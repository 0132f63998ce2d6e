"""Extension: availability vs. the failure-detection window T.

Pastry presumes a node failed after it is "unresponsive for a period T"
(§2.1); PAST loses a file only when all k replicas fail "within a
recovery period".  This benchmark sweeps the detection delay on a virtual
clock with Poisson crashes (each destroying the node's disk) and
measures file survival.  Expected shape: immediate detection loses
nothing; once the window grows past the crash interarrival time, losses
appear and grow with T.
"""


def test_recovery_window(paper_artifact):
    results = paper_artifact("recovery")

    by_delay = {r.detection_delay: r for r in results}
    assert by_delay[0.0].availability == 1.0
    assert by_delay[50.0].availability < by_delay[0.0].availability
    # Availability is (weakly) decreasing in the window size.
    assert by_delay[50.0].availability <= by_delay[1.0].availability + 0.01
