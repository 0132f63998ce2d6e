"""Ablation: leaf-set size beyond the paper's {16, 32}.

Paper claim: "increasing the leaf set size beyond 32 yields no further
increase in performance, but does increase the cost of PAST node arrival
and departure".
"""


def test_ablation_leafset(paper_artifact):
    sweep = paper_artifact("ablation_leafset")

    by_l = {r["l"]: r for r in sweep.rows}
    # Growing l from 8 to 32 helps...
    assert by_l[32]["succeed_pct"] >= by_l[8]["succeed_pct"] - 0.5
    # ...but 48 buys little beyond 32 (within noise).
    assert abs(by_l[48]["succeed_pct"] - by_l[32]["succeed_pct"]) < 3.0
