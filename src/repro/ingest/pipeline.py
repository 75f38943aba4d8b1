"""The ingest pipeline: overlay writes, budgeted compaction, rollover.

The pipeline keeps three invariants the chaos suite leans on:

1. **The serving tier never sees a stale snapshot.** Writes go to the
   overlay, not to a live graph, so the platform's pinned snapshots
   never have a mutated graph behind them — there is nothing to raise
   :class:`~repro.errors.StaleSnapshotError` about.
2. **Compaction equals replay.** The compacted base is bit-identical
   to a from-scratch ``LabeledSocialGraph.snapshot()`` over the same
   event sequence (``tests/graph/test_overlay.py``), and the index
   refresh at each compaction — every landmark, through the build's
   own list builder — is bit-identical to a from-scratch
   :meth:`LandmarkIndex.build` over that base.
3. **Rollovers are budgeted, not per-event.** The
   :class:`CompactionPolicy` triggers on event count, overlay size, or
   wall clock — whichever fires first — so ingest throughput is
   decoupled from the (expensive) rollover cadence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from ..api import IngestEvent, IngestResponse
from ..dynamics.incremental import IncrementalMaintainer
from ..errors import ConfigurationError
from ..graph.overlay import DeltaSnapshot
from ..graph.snapshot import GraphSnapshot
from ..landmarks.index import LandmarkIndex
from ..obs import runtime as _obs
from ..semantics.matrix import SimilarityMatrix


@dataclass(frozen=True)
class CompactionPolicy:
    """When to fold the overlay into a fresh servable base.

    Any ``None`` trigger is disabled; the first satisfied trigger
    fires. The defaults favour event count — the trigger whose cost
    model (one landmark refresh + one rollover per N events) the
    bench-smoke stage measures.

    Attributes:
        max_events: Compact after this many *applied* events.
        max_overlay_edges: Compact when the overlay log (adds +
            tombstones + new nodes) grows past this size — bounds the
            per-read merge cost.
        max_seconds: Compact when the oldest uncompacted event is this
            old (wall clock; measured with the pipeline's clock).
    """

    max_events: Optional[int] = 64
    max_overlay_edges: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_events", "max_overlay_edges", "max_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{name} must be > 0 or None, got {value}")
        if (self.max_events is None and self.max_overlay_edges is None
                and self.max_seconds is None):
            raise ConfigurationError(
                "at least one compaction trigger must be set")

    def due(self, overlay: DeltaSnapshot, pending_events: int,
            oldest_age: float) -> Optional[str]:
        """The name of the first satisfied trigger, or ``None``."""
        if (self.max_events is not None
                and pending_events >= self.max_events):
            return "events"
        if (self.max_overlay_edges is not None
                and overlay.overlay_edges >= self.max_overlay_edges):
            return "overlay"
        if (self.max_seconds is not None and pending_events
                and oldest_age >= self.max_seconds):
            return "wall-clock"
        return None


class IngestPipeline:
    """Apply :class:`~repro.api.IngestEvent` streams to a serving tier.

    Args:
        platform: The sharded serving tier to keep fresh. Its current
            generation's snapshot becomes the first overlay base.
        similarity: Topic-similarity matrix (index refreshes).
        topics: Topics the landmark index maintains.
        policy: Compaction cadence (default:
            ``CompactionPolicy(max_events=64)``).
        maintainer: Landmark maintainer override; by default an
            :class:`~repro.dynamics.incremental.IncrementalMaintainer`
            with ``flush_every=0`` is created over the overlay and
            flushed once per compaction against the compacted base,
            which refreshes every landmark.
        auto_flip: Flip each rollover immediately after warming. The
            chaos harness passes ``False`` to stretch the
            pending-rollover window across request waves; a pending
            rollover left by the caller is flipped at the *next*
            compaction, so ingestion itself never dies on
            ``ConfigurationError``.
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(self, platform, similarity: SimilarityMatrix,
                 topics: Sequence[str], *,
                 policy: Optional[CompactionPolicy] = None,
                 maintainer: Optional[IncrementalMaintainer] = None,
                 auto_flip: bool = True,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.platform = platform
        self.similarity = similarity
        self.topics = list(topics)
        self.policy = policy if policy is not None else CompactionPolicy()
        self.auto_flip = auto_flip
        self._clock = clock
        base = platform.snapshot
        self.overlay = DeltaSnapshot(base)
        self.index: LandmarkIndex = platform.index
        if maintainer is None:
            maintainer = IncrementalMaintainer(
                self.overlay, self.index, self.topics, similarity,
                params=platform.params, flush_every=0)
        self.maintainer = maintainer
        self._servable_epoch = base.epoch
        self._oldest_pending: Optional[float] = None
        self.events_total = 0
        self.events_skipped = 0
        self.compactions_total = 0

    # ------------------------------------------------------------------
    @property
    def servable_epoch(self) -> int:
        """Epoch the serving tier currently answers from."""
        return self._servable_epoch

    @property
    def pending_events(self) -> int:
        """Applied events not yet folded into a servable base."""
        return self.overlay.events_applied

    def submit(self, event: IngestEvent) -> IngestResponse:
        """Apply one event to the overlay; compact when the policy says.

        Returns an :class:`~repro.api.IngestResponse` whose
        ``applied`` mirrors the overlay's skip semantics (unfollow or
        retopic of a missing edge is a counted no-op).
        """
        edge_event = event.to_edge_event()
        applied = self.overlay.apply(edge_event)
        if applied:
            self.events_total += 1
            _obs.count("ingest.events_total")
            if self._oldest_pending is None:
                self._oldest_pending = self._clock()
            self.maintainer.on_event(edge_event)
        else:
            self.events_skipped += 1
            _obs.count("ingest.events_skipped_total")

        compacted = False
        oldest_age = (self._clock() - self._oldest_pending
                      if self._oldest_pending is not None else 0.0)
        trigger = self.policy.due(self.overlay, self.pending_events,
                                  oldest_age)
        if trigger is not None:
            self.compact(trigger=trigger)
            compacted = True
        return IngestResponse(
            event=event,
            applied=applied,
            ingest_epoch=self.overlay.epoch,
            servable_epoch=self._servable_epoch,
            compacted=compacted,
            pending_events=self.pending_events,
        )

    def submit_all(self, events: Iterable[IngestEvent]
                   ) -> List[IngestResponse]:
        """Submit every event in order; returns all responses."""
        return [self.submit(event) for event in events]

    # ------------------------------------------------------------------
    def compact(self, trigger: str = "manual") -> GraphSnapshot:
        """Fold the overlay into a fresh base and roll the tier over.

        The sequence: flip any rollover still pending from a previous
        ``auto_flip=False`` compaction; compact the overlay; flush the
        maintainer against the compacted base (one batched refresh of
        every landmark, bitwise-equal to a full rebuild); hand base +
        refreshed index to :meth:`ShardedPlatform.begin_rollover`; flip
        (unless ``auto_flip=False`` — then the caller owns the flip);
        start a fresh overlay over the new base.

        Returns the compacted base snapshot.
        """
        with _obs.span("ingest.compact") as _sp:
            pending = self.platform.pending_rollover
            if pending is not None:
                pending.flip()
                self._servable_epoch = pending.epoch
            snapshot = self.overlay.compact()
            refreshed = self.maintainer.flush(view=snapshot)
            rollover = self.platform.begin_rollover(
                graph=snapshot, index=self.index)
            if self.auto_flip:
                rollover.flip()
                self._servable_epoch = snapshot.epoch
            if _sp:
                _sp.set(trigger=trigger, epoch=snapshot.epoch,
                        events=self.overlay.events_applied,
                        landmarks_refreshed=refreshed,
                        flipped=self.auto_flip)
        self.overlay = DeltaSnapshot(snapshot)
        self.maintainer.rebind(self.overlay)
        self._oldest_pending = None
        self.compactions_total += 1
        _obs.count("ingest.compactions_total")
        _obs.gauge("ingest.pending_events", 0.0)
        return snapshot

    def __repr__(self) -> str:
        return (f"IngestPipeline(events={self.events_total}, "
                f"pending={self.pending_events}, "
                f"compactions={self.compactions_total}, "
                f"servable_epoch={self._servable_epoch})")
