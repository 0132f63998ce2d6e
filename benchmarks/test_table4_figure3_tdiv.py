"""Table 4 + Figure 3: sensitivity to the diverted-store threshold t_div.

Paper shape: larger t_div lets diverted replicas consume space that
primaries will later want — utilization rises (99.8% at t_div=0.1) but
failures rise with it; tiny t_div (0.005) almost eliminates diversion's
benefit, capping utilization near 90%.
"""


def test_table4_figure3(paper_artifact):
    sweep = paper_artifact("table4")

    rows = {r["t_div"]: r for r in sweep.rows}
    # Shape: utilization is monotone in t_div across the sweep extremes.
    assert rows[0.1]["util_pct"] > rows[0.005]["util_pct"]
    assert rows[0.05]["util_pct"] > rows[0.005]["util_pct"]
