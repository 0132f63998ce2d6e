"""Ablation: the cache-insertion fraction c (§4; the paper fixes c = 1).

A tiny c refuses to cache all but the smallest routed-through files,
sacrificing hit rate; c = 1 admits anything smaller than the whole cache.
"""


def test_ablation_cache_fraction(paper_artifact):
    results = paper_artifact("ablation_cache_fraction")

    assert results[1.0].hit_ratio >= results[0.01].hit_ratio
    assert results[1.0].mean_hops <= results[0.01].mean_hops + 0.05
