"""Concurrency-readiness analyzer for the real-network execution plane.

Built on the flow layer's interprocedural call graph and effect
fixpoints, this package proves (or itemises the debt preventing) three
properties of the engine-pure node logic:

* **atomicity** — no read-modify-write of shared state spans a
  suspension point without a confirming re-read (:mod:`.analysis`);
* **non-blocking** — no wall-clock sleeps, sync I/O, or busy-waits that
  would hold a node's dispatch lock and a handler thread (:mod:`.rules`);
* **seam conformance** — time and the network are reached only through
  the transport seam of :mod:`repro.netsim.transport` (:mod:`.rules`).

``python -m repro check`` runs the catalogue beside the lint and wire
catalogues, against the committed accepted-debt baseline.
"""

from .analysis import ConcAnalysis, get_conc_analysis
from .rules import CONC_RULE_NAMES, ENGINE_PURE_MODULES, conc_rules

__all__ = [
    "CONC_RULE_NAMES",
    "ConcAnalysis",
    "ENGINE_PURE_MODULES",
    "conc_rules",
    "get_conc_analysis",
]
