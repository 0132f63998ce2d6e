"""Experiment drivers reproducing §5 of the paper.

:mod:`repro.experiments.artifacts` is the index: one row per table,
figure, extension and ablation, naming the driver that runs it (in
``storage``, ``caching``, ``churn``, ``recovery``, ``locality`` or
``security``), its parameters and its report.
:mod:`repro.experiments.chaos` is the fault-injection harness with
availability and §3.5 durability oracles (not a paper figure; run it
with ``repro chaos``).

Experiments are scaled by node count relative to the paper's 2250-node
runs; all ratios that drive the published shapes (file size vs. node
capacity distribution, oversubscription, k, thresholds) are preserved.
"""

from .harness import StorageRunConfig, StorageRunResult, run_storage_trace
from . import storage, caching, churn, locality, recovery, security

__all__ = [
    "StorageRunConfig",
    "StorageRunResult",
    "run_storage_trace",
    "storage",
    "caching",
    "churn",
    "locality",
    "recovery",
    "security",
]
