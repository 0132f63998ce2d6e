"""Extension: estimated lookup latency under the paper's 25 ms/hop anchor.

The paper reports fetch performance in routing hops "because actual
lookup delays strongly depend on per-hop network delays", anchoring the
conversion with one measurement: ~25 ms to retrieve a 1 kB file one hop
away on a LAN.  This benchmark applies that conversion (plus propagation
over the emulated topology and a transfer term) to every lookup of a
caching run, with and without caching.  Expected shape: caching shifts
the whole latency distribution down.
"""


def test_lookup_latency(paper_artifact):
    latencies = paper_artifact("latency")

    assert latencies["gds"][50] <= latencies["none"][50]
    assert latencies["gds"][90] <= latencies["none"][90] + 1.0
