"""The lint gate: the shipped tree must be clean under the full rule set.

This is the static complement of the runtime invariant audit — any PR
that introduces unseeded randomness, wall-clock reads, cross-layer
imports or an unhandled request message fails here before it can skew
the paper's reproduced figures.
"""

from __future__ import annotations

from repro.devtools.rules import all_rules


def test_src_tree_is_lint_clean(checked_src):
    assert len(checked_src.modules) > 50, "expected the whole src tree to be collected"
    lint = {rule.name for rule in all_rules()}
    findings = [f for f in checked_src.findings if f.rule in lint]
    rendered = "\n".join(f.render() for f in findings)
    assert not findings, f"lint findings in src/:\n{rendered}"


def test_rule_set_is_complete_and_distinct():
    rules = all_rules()
    names = [rule.name for rule in rules]
    assert len(names) == len(set(names)), "duplicate rule names"
    assert len(rules) >= 6, "the suite promises at least six distinct rules"
    for rule in rules:
        assert rule.name and rule.description
