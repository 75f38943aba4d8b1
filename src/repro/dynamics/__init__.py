"""Graph dynamicity and landmark-index maintenance.

The paper's conclusion flags this as future work: "many following
links have a short lifespan. This graph dynamicity may impact the
scores stored by the landmarks." This subpackage implements it:

- a follow/unfollow/retopic event model and a churn simulator that
  mirrors the generator's attachment biases (:mod:`events`);
- a stream applier with listener hooks (:mod:`stream`);
- landmark-index maintenance policies — eager, batched-lazy, TTL, and
  no-op — plus a staleness probe that quantifies how far stored
  recommendations drift from fresh ones (:mod:`maintenance`);
- the exact :class:`IncrementalMaintainer` (:mod:`incremental`), which
  refreshes every landmark per flush and stays bitwise-identical to a
  from-scratch rebuild.

All five maintainers satisfy the runtime-checkable
:class:`repro.api.Maintainer` protocol and report the same frozen
:class:`repro.api.MaintenanceStats` snapshot.
"""

from .events import EdgeEvent, EventKind, simulate_churn
from .stream import GraphStream
from .maintenance import (
    BatchMaintainer,
    EagerMaintainer,
    MaintenanceStats,
    NoOpMaintainer,
    TTLMaintainer,
    measure_staleness,
)
from .incremental import IncrementalMaintainer

__all__ = [
    "EdgeEvent",
    "EventKind",
    "simulate_churn",
    "GraphStream",
    "EagerMaintainer",
    "BatchMaintainer",
    "TTLMaintainer",
    "NoOpMaintainer",
    "IncrementalMaintainer",
    "MaintenanceStats",
    "measure_staleness",
]
