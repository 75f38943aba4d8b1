"""Graph dynamicity and landmark-index maintenance.

The paper's conclusion flags this as future work: "many following
links have a short lifespan. This graph dynamicity may impact the
scores stored by the landmarks." This subpackage implements it:

- a follow/unfollow/retopic event model and a churn simulator that
  mirrors the generator's attachment biases (:mod:`events`);
- a stream applier for live graphs (:mod:`stream`);
- the exact :class:`IncrementalMaintainer` (:mod:`incremental`), which
  refreshes every landmark per flush and stays bitwise-identical to a
  from-scratch rebuild; the ingest pipeline flushes it once per
  compaction;
- a staleness probe that quantifies how far stored recommendations
  drift from what the index's own builder produces on the current
  graph (:mod:`maintenance`).
"""

from .events import EdgeEvent, EventKind, simulate_churn
from .stream import GraphStream
from .maintenance import measure_staleness
from .incremental import IncrementalMaintainer

__all__ = [
    "EdgeEvent",
    "EventKind",
    "simulate_churn",
    "GraphStream",
    "IncrementalMaintainer",
    "measure_staleness",
]
