"""Figure 4: file diversions (1x/2x/3x re-salts) and failures vs. utilization.

Paper shape: file diversions are negligible while utilization is below
~83%, then climb steeply; triple diversions stay rare; insertion failures
appear only at the very end.
"""


def test_figure4(paper_artifact):
    run = paper_artifact("figure4")
    curves = run.stats.file_diversion_curves()

    # Shape: below 60% utilization file diversion is (near) zero.
    low = [c for c in curves if c[0] < 0.6]
    if low:
        u, r1, r2, r3, f = low[-1]
        assert r1 + r2 + r3 < 0.02
    # Shape: diversions increase towards the end of the run.
    final = curves[-1]
    assert final[1] >= (low[-1][1] if low else 0.0)
    # Shape: deeper re-salting is rarer.
    assert final[1] >= final[2] >= final[3]
