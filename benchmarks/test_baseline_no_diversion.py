"""§5.1 baseline: storage management disabled.

Paper: with no replica and file diversion, 51.1% of file insertions
failed and final global utilization was only 60.8% — "this clearly
demonstrates the need for storage management in a system like PAST".
Expected shape: a large fraction of inserts fail while a large fraction
of the aggregate disk space remains stranded.
"""


def test_baseline_no_diversion(paper_artifact):
    run = paper_artifact("baseline")

    assert run.fail_pct > 25.0
    assert run.utilization < 0.80
