"""Pastry substrate benchmarks: hop counts and route locality.

The paper relies on Pastry's published properties: routes take about
``log_{2^b} N`` hops, and the proximity heuristic keeps the travelled
network distance within a small factor of the direct source-destination
distance (about 1.5x in [27]).
"""

import math


def test_pastry_hops_and_locality(paper_artifact):
    results = paper_artifact("pastry_routing")

    for n, r in results.items():
        # Every route ended at the numerically closest live node.
        assert r.misrouted == 0
        bound = math.ceil(math.log(n, 16))
        assert r.mean_hops <= bound
        assert r.max_hops <= bound + 2
    # Locality: routes should not wander arbitrarily far.
    assert results[1000].mean_stretch < 4.0
