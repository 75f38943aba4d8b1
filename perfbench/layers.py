"""Which public callables make up each layer, and the per-layer metrics.

Each layer maps to the callables the benchmark wraps (see
``README.md``). A layer whose callables are never called reports zero
calls and zero time rather than failing, so the map survives an
implementation swap behind the same public name.
"""

from __future__ import annotations

from typing import Dict, Tuple

from spans import Tracer

#: Per-layer metric name -> unit, in report order.
UNITS: Dict[str, str] = {
    "graph.open_s": "s",
    "graph.page_faults": "count",
    "graph.snapshot_build_s": "s",
    "landmarks.build_s": "s",
    "landmarks.sources": "count",
    "landmarks.entries": "count",
    "sparse.multi_source_s": "s",
    "sparse.sources": "count",
    "explore.busy_s": "s",
    "explore.calls": "count",
    "explore.supersteps": "count",
    "explore.remote_messages": "count",
    "fetch.busy_s": "s",
    "fetch.calls": "count",
    "fetch.remote_landmarks": "count",
    "fetch.local_landmarks": "count",
    "fetch.entries_shipped": "count",
    "fetch.retries": "count",
    "fetch.hedges_sent": "count",
    "fetch.hedge_win_ratio": "ratio",
    "compose.busy_s": "s",
    "compose.calls": "count",
    "vcache.hit_ratio": "ratio",
    "serve.busy_s": "s",
    "serve.other_s": "s",
    "serve.attributed_ratio": "ratio",
    "ingest.submit_s": "s",
    "ingest.events_applied": "count",
    "ingest.events_skipped": "count",
    "ingest.compactions": "count",
    "ingest.other_s": "s",
    "ingest.attributed_ratio": "ratio",
    "overlay.apply_s": "s",
    "overlay.compact_s": "s",
    "overlay.edges_folded": "count",
    "maint.on_event_s": "s",
    "maint.flush_s": "s",
    "maint.landmarks_refreshed": "count",
    "maint.sources_propagated": "count",
    "maint.dirty_ratio": "ratio",
    "rollover.prepare_s": "s",
    "rollover.flip_s": "s",
    "rollover.warmups": "count",
    "loadgen.lag_max_ms": "ms",
    "loadgen.backlog_end": "count",
    "mixed.read_wait_p99_ms": "ms",
    "trace.overhead_s": "s",
    "failed_ratio": "ratio",
}

#: Work counts that must repeat exactly across runs of one seed.
DETERMINISTIC = (
    "landmarks.sources", "landmarks.entries", "sparse.sources",
    "explore.calls", "explore.supersteps", "explore.remote_messages",
    "fetch.calls", "fetch.remote_landmarks", "fetch.local_landmarks",
    "fetch.entries_shipped", "fetch.retries", "fetch.hedges_sent",
    "compose.calls", "ingest.events_applied", "ingest.events_skipped",
    "ingest.compactions", "overlay.edges_folded",
    "maint.landmarks_refreshed", "maint.sources_propagated",
    "rollover.warmups",
)


def _count_build(tracer: Tracer, args: tuple, result, token) -> None:
    tracer.count("landmarks.sources", len(args[2]))
    tracer.count("landmarks.entries", sum(
        len(result.recommendations(landmark, topic))
        for landmark in result.landmarks
        for topic in result.topics_of(landmark)))


def _count_sources(tracer: Tracer, args: tuple, result, token) -> None:
    tracer.count("sparse.sources", len(args[1]))


def _count_explore(tracer: Tracer, args: tuple, result, token) -> None:
    _, stats = result
    tracer.count("explore.supersteps", stats.supersteps)
    tracer.count("explore.remote_messages", stats.remote_messages)


def _retry(tracer: Tracer, args: tuple):
    # hedged_fetch(self, primary, backup, landmark, topic, clock, attempt)
    if args[6] > 1:
        tracer.count("fetch.retries")


def _cache_before(tracer: Tracer, args: tuple):
    return args[0].hits


def _cache_after(tracer: Tracer, args: tuple, result, hits_before) -> None:
    tracer.count("vcache.lookups")
    tracer.count("vcache.hits", args[0].hits - hits_before)


def _count_serve(tracer: Tracer, args: tuple, result, token) -> None:
    cost = result.cost
    tracer.count("fetch.remote_landmarks", cost.remote_landmarks)
    tracer.count("fetch.local_landmarks", cost.local_landmarks)
    tracer.count("fetch.entries_shipped", cost.entries_transferred)


def _overlay_size(tracer: Tracer, args: tuple):
    return args[0].overlay_edges


def _count_folded(tracer: Tracer, args: tuple, result, folded) -> None:
    tracer.count("overlay.edges_folded", folded)


def _count_flush(tracer: Tracer, args: tuple, result, token) -> None:
    tracer.count("maint.landmarks_refreshed", result)
    tracer.count("maint.landmarks_held", len(args[0].index.landmarks))


def _count_warmups(tracer: Tracer, args: tuple, result, token) -> None:
    if args[0].pending_rollover is result and result.ready:
        tracer.count("rollover.warmups", sum(
            replica_set.num_replicas
            for replica_set in result.next_generation.replica_sets))


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every measured layer."""
    from repro.core.fast import SparseEngine
    from repro.distributed import sharded
    from repro.dynamics.incremental import IncrementalMaintainer
    from repro.graph import io as graph_io
    from repro.graph.labeled_graph import LabeledSocialGraph
    from repro.graph.overlay import DeltaSnapshot
    from repro.ingest.pipeline import IngestPipeline
    from repro.landmarks import query_engine
    from repro.landmarks.index import LandmarkIndex

    wrap = tracer.wrap
    wrap(graph_io, "open_snapshot", "graph.open")
    wrap(LabeledSocialGraph, "snapshot", "graph.snapshot_build")
    wrap(LandmarkIndex, "build", "landmarks.build", after=_count_build)
    wrap(SparseEngine, "multi_source", "sparse.multi_source",
         after=_count_sources)
    wrap(sharded, "distributed_single_source_scores", "explore",
         after=_count_explore)
    wrap(query_engine.QueryEngine, "explore", "explore")
    wrap(sharded.ShardChannel, "hedged_fetch", "fetch", before=_retry)
    wrap(sharded, "compose_landmark_contributions", "compose")
    wrap(query_engine.LandmarkVectorCache, "get_or_build", "vcache",
         before=_cache_before, after=_cache_after)
    wrap(sharded.ShardedPlatform, "serve", "serve", after=_count_serve)
    wrap(IngestPipeline, "submit", "ingest.submit")
    wrap(IngestPipeline, "compact", "ingest.compact")
    wrap(DeltaSnapshot, "apply", "overlay.apply")
    wrap(DeltaSnapshot, "compact", "overlay.compact", before=_overlay_size,
         after=_count_folded)
    wrap(IncrementalMaintainer, "on_event", "maint.on_event")
    wrap(IncrementalMaintainer, "flush", "maint.flush", after=_count_flush)
    wrap(sharded.ShardedPlatform, "begin_rollover", "rollover.prepare",
         after=_count_warmups)
    wrap(sharded.EpochRollover, "flip", "rollover.flip")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metrics(tracer: Tracer, extra: Dict[str, float]
            ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the traced spans and counts.

    *extra* carries what the workload read from public attributes
    (channel, pipeline and maintainer counters, load generator, page
    faults, tracing overhead); it overrides nothing computed here.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    serve_total = total("serve")
    ingest_total = tracer.top_level(("ingest.submit", "ingest.compact"))
    ingest_other = own("ingest.submit") + own("ingest.compact")
    values: Dict[str, float] = {
        "graph.open_s": total("graph.open"),
        "graph.snapshot_build_s": total("graph.snapshot_build"),
        "landmarks.build_s": own("landmarks.build"),
        "landmarks.sources": counts["landmarks.sources"],
        "landmarks.entries": counts["landmarks.entries"],
        "sparse.multi_source_s": own("sparse.multi_source"),
        "sparse.sources": counts["sparse.sources"],
        "explore.busy_s": own("explore"),
        "explore.calls": calls("explore"),
        "explore.supersteps": counts["explore.supersteps"],
        "explore.remote_messages": counts["explore.remote_messages"],
        "fetch.busy_s": own("fetch"),
        "fetch.calls": calls("fetch"),
        "fetch.remote_landmarks": counts["fetch.remote_landmarks"],
        "fetch.local_landmarks": counts["fetch.local_landmarks"],
        "fetch.entries_shipped": counts["fetch.entries_shipped"],
        "fetch.retries": counts["fetch.retries"],
        "compose.busy_s": own("compose") + own("vcache"),
        "compose.calls": calls("compose"),
        "vcache.hit_ratio": _ratio(counts["vcache.hits"],
                                   counts["vcache.lookups"]),
        "serve.busy_s": serve_total,
        "serve.other_s": own("serve"),
        "serve.attributed_ratio": _ratio(serve_total - own("serve"),
                                         serve_total),
        "ingest.submit_s": total("ingest.submit"),
        "ingest.other_s": ingest_other,
        "ingest.attributed_ratio": _ratio(ingest_total - ingest_other,
                                          ingest_total),
        "overlay.apply_s": own("overlay.apply"),
        "overlay.compact_s": own("overlay.compact"),
        "overlay.edges_folded": counts["overlay.edges_folded"],
        "maint.on_event_s": own("maint.on_event"),
        "maint.flush_s": own("maint.flush"),
        "maint.landmarks_refreshed": counts["maint.landmarks_refreshed"],
        "maint.dirty_ratio": _ratio(counts["maint.landmarks_refreshed"],
                                    counts["maint.landmarks_held"]),
        "rollover.prepare_s": own("rollover.prepare"),
        "rollover.flip_s": own("rollover.flip"),
        "rollover.warmups": counts["rollover.warmups"],
    }
    values.update(extra)
    missing = set(UNITS) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: (float(values[name]), unit) for name, unit in UNITS.items()}
