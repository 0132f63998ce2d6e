"""Extension: randomized routing vs. malicious nodes (§2.3).

The paper: deterministic routing is "vulnerable to malicious or failed
nodes along the route that accept messages but do not correctly forward
them.  Repeated queries could thus fail each time, since they are likely
to take the same route" — hence routing is randomized, heavily biased to
the best hop.  Expected shape: with a few retries per lookup, randomized
routing sustains a higher success rate than deterministic routing at
every malicious fraction.
"""


def test_randomized_routing_vs_malicious(paper_artifact):
    results = paper_artifact("security")

    det = {r.malicious_fraction: r for r in results if not r.randomized}
    ran = {r.malicious_fraction: r for r in results if r.randomized}
    det_mean = sum(r.success_ratio for r in det.values()) / len(det)
    ran_mean = sum(r.success_ratio for r in ran.values()) / len(ran)
    # Shape: randomization helps overall and never hurts much anywhere.
    assert ran_mean > det_mean
    for f in det:
        assert ran[f].success_ratio >= det[f].success_ratio - 0.05
