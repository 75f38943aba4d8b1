#!/usr/bin/env python
"""Keeping landmark indexes fresh under follow/unfollow churn.

The paper's future-work section (§6) asks how landmark-stored scores
should survive graph dynamicity ("many following links have a short
lifespan"). This example serves a landmark index from a one-shard tier,
streams churn through the ingest pipeline, and sweeps how often the
pipeline compacts. Each compaction refreshes every landmark, so the
compaction cadence is the freshness knob: how stale does the index get
between compactions, and how many Algorithm-1 refreshes does a cadence
pay per event?

Run:
    python examples/dynamic_updates.py
"""

from repro import ScoreParams, SimilarityMatrix, web_taxonomy
from repro.api import IngestEvent
from repro.config import LandmarkParams
from repro.datasets import generate_twitter_graph
from repro.distributed import ShardedPlatform
from repro.dynamics import GraphStream, measure_staleness, simulate_churn
from repro.ingest import CompactionPolicy, IngestPipeline
from repro.landmarks import LandmarkIndex, select_landmarks

TOPIC = "technology"
PARAMS = ScoreParams(beta=0.0005, alpha=0.85)
NUM_NODES = 400
NUM_LANDMARKS = 6
NUM_EVENTS = 96
#: Compact every k applied events; the last one never fires in-stream.
CADENCES = (1, 16, 64, NUM_EVENTS + 1)


def run_cadence(base, landmarks, similarity, events, max_events):
    """Stream *events* through a pipeline compacting every *max_events*.

    Returns ``(refreshes per event, staleness at the end of the stream,
    staleness after one final compaction)``; staleness is measured
    against the graph the whole stream produces.
    """
    index = LandmarkIndex.build(
        base, landmarks, [TOPIC], similarity, params=PARAMS,
        landmark_params=LandmarkParams(num_landmarks=len(landmarks),
                                       top_n=100))
    platform = ShardedPlatform.build(base, similarity, index, 1,
                                     params=PARAMS)
    pipeline = IngestPipeline(platform, similarity, [TOPIC],
                              policy=CompactionPolicy(max_events=max_events))
    pipeline.submit_all(
        IngestEvent(kind=event.kind.value, source=event.source,
                    target=event.target, topics=tuple(event.topics or ()),
                    time=event.time)
        for event in events)
    refreshes = pipeline.maintainer.stats.rebuilds_per_event
    current = base.copy()
    GraphStream(current).apply_all(events)
    at_end = measure_staleness(current, pipeline.index, TOPIC, similarity)
    pipeline.compact()
    after = measure_staleness(current, pipeline.index, TOPIC, similarity)
    return refreshes, at_end, after


def main():
    base = generate_twitter_graph(NUM_NODES, seed=5)
    landmarks = select_landmarks(base, "In-Deg", NUM_LANDMARKS, rng=5)
    events = list(simulate_churn(base, NUM_EVENTS, seed=5))
    follows = sum(1 for e in events if e.is_follow)
    print(f"churn stream: {len(events)} events "
          f"({follows} follows, {len(events) - follows} other)\n")

    similarity = SimilarityMatrix.from_taxonomy(web_taxonomy())
    print(f"{'compact every':>13s} {'refreshes/event':>16s} "
          f"{'stale at end':>13s} {'after compaction':>17s}")
    for max_events in CADENCES:
        refreshes, at_end, after = run_cadence(base, landmarks, similarity,
                                               events, max_events)
        label = (f"{max_events}" if max_events <= NUM_EVENTS
                 else "never")
        print(f"{label:>13s} {refreshes:16.3f} {at_end:13.4f} "
              f"{after:17.4f}")

    print("\nreading the table: staleness is the Kendall tau drift of the")
    print("stored top lists from what the index's own builder produces on")
    print("the current graph (0 = fresh); a compaction refreshes every")
    print("landmark, so the index is exactly fresh right after one.")


if __name__ == "__main__":
    main()
