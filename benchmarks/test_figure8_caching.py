"""Figure 8: global cache hit ratio and routing hops vs. utilization for
GreedyDual-Size, LRU, and no caching.

Paper shape: hit ratio declines as utilization squeezes cache space; mean
hops rise with utilization but stay below the no-caching line even at 99%
utilization; GD-S performs at least as well as LRU on both metrics.
"""


def test_figure8(paper_artifact):
    results = paper_artifact("figure8")

    gds, lru, none = results["gds"], results["lru"], results["none"]
    # Shape 1: caching shortens fetch distance vs. no caching.
    assert gds.mean_hops < none.mean_hops
    assert lru.mean_hops < none.mean_hops
    # Shape 2: GD-S is at least competitive with LRU.
    assert gds.hit_ratio >= lru.hit_ratio - 0.03
    assert gds.mean_hops <= lru.mean_hops + 0.05
    # Shape 3: hit rate declines at high utilization (cache space shrank).
    curve = [(u, h) for u, h, _, n in gds.curve if n > 100]
    if curve:
        peak_u, peak = max(curve, key=lambda p: p[1])
        tail = [h for u, h in curve if u > max(peak_u, 0.85)]
        if tail:
            assert min(tail) < peak
    # Shape 4: even saturated, caching beats the no-cache hop count.
    gds_tail = [hp for u, _, hp, n in gds.curve if u > 0.9 and n > 50]
    none_tail = [hp for u, _, hp, n in none.curve if u > 0.9 and n > 50]
    if gds_tail and none_tail:
        assert min(gds_tail) < max(none_tail)
