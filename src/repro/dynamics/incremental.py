"""Flush-time landmark maintenance: refresh every landmark per flush.

The rebuild-based policies of :mod:`repro.dynamics.maintenance` re-run
Algorithm 1 for every landmark whose *stored lists* an event touches —
a heuristic that both over-fires (a listed node far outside the
propagation cone) and under-fires (an unlisted node inside it).
:class:`IncrementalMaintainer` is exact instead: it counts applied
events, and each flush re-propagates every landmark through
:meth:`LandmarkIndex.refresh` — the build's own list builder, in
``EngineParams().batch_size`` blocks — so the refreshed index is
bitwise-identical to a from-scratch rebuild on the flushed graph.

Skipping landmarks whose cone the churn misses does not pay under the
bitwise contract: one follow puts every follower of its target in
play, and the authority normaliser ``log1p(max |Γv(t)|)`` is
graph-wide, so on the benchmark workloads every landmark changed at
every compaction. A flush therefore costs one batched refresh and an
event costs a counter increment.

With the default ``flush_every=1`` the index is fresh after every
event — same observable freshness as :class:`EagerMaintainer`. The
ingest pipeline (:mod:`repro.ingest`) instead constructs it with
``flush_every=0`` and calls :meth:`flush` once per compaction, passing
the compacted snapshot as the propagation view.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import ScoreParams
from ..landmarks.index import LandmarkIndex
from ..obs import runtime as _obs
from ..semantics.matrix import SimilarityMatrix
from .events import EdgeEvent
from .maintenance import _BaseMaintainer


class IncrementalMaintainer(_BaseMaintainer):
    """Re-propagate every landmark once per flush of pending events.

    Args:
        graph: The post-event view events are applied to before this
            maintainer sees them (GraphStream's contract) — a live
            graph or a :class:`~repro.graph.overlay.DeltaSnapshot`.
        index: The landmark index to keep fresh.
        topics: Topics maintained (usually the index's vocabulary).
        similarity: Topic-similarity matrix.
        params: Decay parameters (refreshes use the index's own).
        flush_every: Auto-flush after this many applied events; ``0``
            disables auto-flush (callers drive :meth:`flush`, e.g. the
            ingest pipeline at compaction boundaries).
    """

    def __init__(self, graph, index: LandmarkIndex,
                 topics: Sequence[str], similarity: SimilarityMatrix,
                 params: Optional[ScoreParams] = None,
                 flush_every: int = 1) -> None:
        super().__init__(graph, index, topics, similarity, params)
        self.flush_every = flush_every
        self._pending = 0

    # ------------------------------------------------------------------
    def rebind(self, graph) -> None:
        """Point the maintainer at a new post-event view.

        Used by the ingest pipeline after a compaction swaps the
        overlay for a fresh one over the compacted base.
        """
        self.graph = graph

    def on_event(self, event: EdgeEvent) -> None:  # noqa: D102
        self._events_seen += 1
        self._pending += 1
        if self.flush_every and self._pending >= self.flush_every:
            self.flush()

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
            self._count_refresh(refreshed, landmarks)
        self._pending = 0
        return refreshed
