"""Flush-time landmark maintenance: refresh every landmark per flush.

:class:`IncrementalMaintainer` counts applied events, and each flush
re-propagates every landmark through :meth:`LandmarkIndex.refresh` —
the build's own list builder, in ``EngineParams().batch_size`` blocks —
so the refreshed index is bitwise-identical to a from-scratch rebuild
on the flushed graph.

Skipping landmarks whose cone the churn misses does not pay under the
bitwise contract: one follow puts every follower of its target in
play, and the authority normaliser ``log1p(max |Γv(t)|)`` is
graph-wide, so on the benchmark workloads every landmark changed at
every compaction. A flush therefore costs one batched refresh and an
event costs a counter increment. The caller decides when to flush: the
ingest pipeline (:mod:`repro.ingest`) flushes once per compaction,
passing the compacted snapshot as the propagation view, so its
:class:`~repro.ingest.CompactionPolicy` is the one freshness knob.
"""

from __future__ import annotations

from typing import Sequence

from ..api import MaintenanceStats
from ..landmarks.index import LandmarkIndex
from ..obs import runtime as _obs
from ..semantics.matrix import SimilarityMatrix
from .events import EdgeEvent


class IncrementalMaintainer:
    """Re-propagate every landmark once per flush of pending events.

    Args:
        graph: The post-event view events are applied to before this
            maintainer sees them — a live graph or a
            :class:`~repro.graph.overlay.DeltaSnapshot`.
        index: The landmark index to keep fresh. Refreshes use its own
            engine, decay parameters and ``precompute_depth``.
        topics: Topics maintained (usually the index's vocabulary).
        similarity: Topic-similarity matrix.
    """

    def __init__(self, graph, index: LandmarkIndex,
                 topics: Sequence[str],
                 similarity: SimilarityMatrix) -> None:
        self.graph = graph
        self.index = index
        self.topics = list(topics)
        self.similarity = similarity
        self._pending = 0
        self._events_seen = 0
        self._landmarks_rebuilt = 0
        self._rebuild_rounds = 0

    @property
    def stats(self) -> MaintenanceStats:
        """Frozen snapshot of the maintenance counters."""
        return MaintenanceStats(
            events_seen=self._events_seen,
            landmarks_rebuilt=self._landmarks_rebuilt,
            rebuild_rounds=self._rebuild_rounds,
            sources_propagated=self._landmarks_rebuilt,
        )

    # ------------------------------------------------------------------
    def rebind(self, graph) -> None:
        """Point the maintainer at a new post-event view.

        Used by the ingest pipeline after a compaction swaps the
        overlay for a fresh one over the compacted base.
        """
        self.graph = graph

    def on_event(self, event: EdgeEvent) -> None:
        """Count one applied event; the next :meth:`flush` covers it."""
        self._events_seen += 1
        self._pending += 1

    @property
    def pending_events(self) -> int:
        """Applied events observed since the last flush."""
        return self._pending

    def flush(self, view=None) -> int:
        """Refresh every landmark if any event is pending.

        Args:
            view: Propagation view override — the ingest pipeline
                passes the freshly compacted
                :class:`~repro.graph.snapshot.GraphSnapshot` so the
                sparse engine binds to real CSR arrays; defaults to
                the maintainer's bound graph.

        Returns:
            The number of landmarks re-propagated.
        """
        if not self._pending:
            return 0
        graph = view if view is not None else self.graph
        landmarks = list(self.index.landmarks)
        with _obs.span("dynamics.incremental_flush") as _sp:
            if _sp:
                _sp.set(pending=self._pending, total=len(landmarks))
            refreshed = self.index.refresh(graph, landmarks, self.topics,
                                           self.similarity)
        if refreshed:
            self._landmarks_rebuilt += refreshed
            self._rebuild_rounds += 1
        self._pending = 0
        return refreshed
