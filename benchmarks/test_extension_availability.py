"""Extension: file availability vs. replication factor k.

The paper fixes k = 5 based on the availability analysis of desktop
machines in [8] ("the number k is chosen to meet the availability needs
of a file, relative to the expected failure rates of individual nodes").
This benchmark quantifies that choice: the fraction of files surviving a
batch of simultaneous node failures, per k.  Expected shape: availability
climbs steeply with k; by k = 5 even 20% simultaneous failures lose
(essentially) nothing.
"""


def test_availability_vs_k(paper_artifact):
    results = paper_artifact("availability")

    by = {(r.k, r.fail_fraction): r for r in results}
    for fraction in (0.05, 0.10, 0.20):
        # Availability is non-decreasing in k (small tolerance for seeds).
        assert by[(5, fraction)].availability >= by[(1, fraction)].availability
    assert by[(5, 0.20)].availability > 0.99
    assert by[(1, 0.20)].availability < 1.0


def test_churn_invariants(paper_artifact):
    result = paper_artifact("churn")

    assert result.audits_passed == result.audits_total
    assert result.lost_files <= result.files * 0.02
