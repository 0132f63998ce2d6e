"""Ablation for §3.6: Reed-Solomon encoding vs. whole-file replication.

The paper sketches (but defers) replacing k whole-file replicas with RS
fragments: m checksum blocks on n data blocks tolerate m losses at
overhead (n+m)/n instead of k.  This benchmark measures the implemented
codec's throughput and tabulates the storage-overhead trade-off for
matched fault tolerance.
"""


def test_erasure_overhead_and_throughput(paper_artifact):
    result = paper_artifact("ablation_erasure")

    # Decoded from a worst-case loss pattern (all parity needed).
    assert result["decoded"] == result["data"]
    cmp = result["overheads"][(5, 8, 4)]
    assert cmp["rs_overhead"] < cmp["replication_overhead"]
