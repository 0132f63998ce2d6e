"""Table 3 + Figure 2: sensitivity to the primary-store threshold t_pri.

Paper shape: raising t_pri trades success rate for utilization — at
t_pri=0.5 utilization peaks (99.7%) but 12% of inserts fail; at
t_pri=0.05 almost everything succeeds (99.73%) at lower utilization.
The cumulative-failure curves (Figure 2) show larger t_pri failing
earlier (big files grabbed space at low utilization).
"""


def test_table3_figure2(paper_artifact):
    sweep = paper_artifact("table3")

    rows = {r["t_pri"]: r for r in sweep.rows}
    # Shape: utilization is monotone (non-decreasing) in t_pri...
    assert rows[0.5]["util_pct"] >= rows[0.05]["util_pct"] - 1.0
    # ...and the failure rate rises with t_pri.
    assert rows[0.5]["fail_pct"] >= rows[0.1]["fail_pct"]
    assert rows[0.2]["fail_pct"] >= rows[0.05]["fail_pct"] - 0.5
