"""Live event-stream ingestion — the paper's open dynamicity problem.

"Many following links have a short lifespan": the conclusion flags
graph dynamicity as the limit of the snapshot-and-precompute design.
This subpackage closes the loop between a stream of
:class:`~repro.api.IngestEvent` writes and the zero-downtime serving
tier:

- writes land on a :class:`~repro.graph.overlay.DeltaSnapshot` overlay
  (cheap per-event deltas; the serving snapshot stays pinned);
- an :class:`~repro.dynamics.incremental.IncrementalMaintainer` counts
  applied events and re-propagates every landmark once per compaction;
- a :class:`CompactionPolicy` decides when to fold the overlay into a
  fresh base, and :class:`IngestPipeline` hands that base to
  :meth:`~repro.distributed.sharded.ShardedPlatform.begin_rollover`,
  so readers never observe a
  :class:`~repro.errors.StaleSnapshotError`.
"""

from .pipeline import CompactionPolicy, IngestPipeline

__all__ = [
    "CompactionPolicy",
    "IngestPipeline",
]
