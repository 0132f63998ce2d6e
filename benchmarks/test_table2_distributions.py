"""Table 2: storage distributions d1-d4 x leaf-set size {16, 32}.

Paper shape: with t_pri=0.1 and t_div=0.05 every configuration reaches
>94% utilization with few failed inserts; l=32 beats l=16 (more scope for
local balancing); the flatter distributions d3/d4 need more replica
diversions.
"""


def test_table2(paper_artifact):
    sweep = paper_artifact("table2")

    by_key = {(r["dist"], r["l"]): r for r in sweep.rows}
    # Shape 1: every configuration fills most of the system.
    for row in sweep.rows:
        assert row["util_pct"] > 85.0
        assert row["succeed_pct"] > 80.0
    # Shape 2: the larger leaf set does not lose to the smaller one.
    for dist in ("d1", "d2", "d3", "d4"):
        assert by_key[(dist, 32)]["succeed_pct"] >= by_key[(dist, 16)]["succeed_pct"] - 1.0
    # Shape 3: d4 (many tiny nodes) diverts the most replicas at l=32.
    assert (
        by_key[("d4", 32)]["replica_diversion_pct"]
        >= by_key[("d1", 32)]["replica_diversion_pct"] - 1.0
    )
