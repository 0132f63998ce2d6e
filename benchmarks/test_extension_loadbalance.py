"""Extension: query load balancing under caching (§4's stated goal).

"The goal of cache management is to minimize client access latencies
(fetch distance), to maximize the query throughput and to **balance the
query load** in the system."  The paper plots fetch distance (Figure 8)
but not load balance; this benchmark quantifies it: the distribution of
served lookups per node, with and without caching.  Expected shape:
caching spreads the load of popular files over many more nodes, cutting
the peak-to-average ratio and the share of the busiest nodes.
"""


def test_query_load_balance(paper_artifact):
    stats = paper_artifact("loadbalance")

    gds, none = stats["gds"], stats["none"]
    # Caching spreads query load over at least as many nodes...
    assert gds.responders >= none.responders
    # ...and reduces its concentration.
    assert gds.top5_share <= none.top5_share + 0.02
    assert gds.gini <= none.gini + 0.02
