"""Extension: per-node storage balance (the §3 objective, unplotted).

Storage management exists "to balance the remaining free storage space
among nodes in the PAST network as the system-wide storage utilization is
approaching 100%".  This benchmark measures the distribution of per-node
utilization at the end of a trace, with diversion on and off.  Expected
shape: with diversion, node utilizations cluster tightly near the global
figure; without it, the distribution splays — some nodes full, many
half-empty (the stranded capacity of the baseline experiment).
"""

import statistics

from repro.experiments.storage import node_utilizations


def test_free_space_balance(paper_artifact):
    runs = paper_artifact("balance")

    utils = {label: node_utilizations(run) for label, run in runs.items()}
    # Shape: diversion produces a markedly tighter distribution.
    assert statistics.pstdev(utils["diversion"]) < statistics.pstdev(utils["none"])
    assert min(utils["diversion"]) > 0.5  # no node left half-empty under diversion
