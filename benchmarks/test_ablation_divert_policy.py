"""Ablation: diversion-target selection policy.

The paper's policy picks the eligible leaf-set node with *maximal
remaining free space* (§3.3.1).  This ablation compares it against a
uniform-random eligible target.  Expected: max-free balances the leaf
set's free space better, sustaining an equal-or-better success rate and
utilization.
"""


def test_ablation_divert_policy(paper_artifact):
    runs = paper_artifact("ablation_divert_policy")

    assert runs["max_free"].success_pct >= runs["random"].success_pct - 1.0
    assert runs["max_free"].utilization >= runs["random"].utilization - 0.02
