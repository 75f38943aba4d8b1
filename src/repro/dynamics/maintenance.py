"""How far a landmark index has drifted from the graph it serves.

:func:`measure_staleness` probes an index against what its own list
builder produces over the current graph and reports the mean Kendall
tau drift — the freshness side of the refresh-cost trade-off that
:class:`~repro.ingest.CompactionPolicy` sets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.scores import AuthorityIndex
from ..eval.metrics import kendall_tau_distance
from ..graph.snapshot import GraphLike, as_snapshot
from ..landmarks.index import LandmarkIndex

__all__ = ["measure_staleness"]


def measure_staleness(
    graph: GraphLike,
    index: LandmarkIndex,
    topic: str,
    similarity,
    sample: Optional[Sequence[int]] = None,
    top_k: int = 50,
) -> float:
    """Mean Kendall tau between stored and freshly built lists.

    The fresh lists come from the index's own list builder — its
    engine, decay parameters, ``precompute_depth`` and stored topics —
    over the current *graph*, so an index that a build or refresh on
    *graph* would leave unchanged reads exactly 0. The index itself is
    not modified.
    """
    landmarks = list(sample) if sample is not None else list(index.landmarks)
    snapshot = as_snapshot(graph)
    authority = AuthorityIndex(snapshot)
    by_topics: Dict[Tuple[str, ...], List[int]] = {}
    for landmark in landmarks:
        by_topics.setdefault(index.topics_of(landmark), []).append(landmark)
    distances: List[float] = []
    for topics, group in by_topics.items():
        for landmark, per_topic, _ in index._propagate(
                snapshot, group, topics, similarity, authority,
                "landmarks.staleness"):
            stored = [entry.node for entry
                      in index.recommendations(landmark, topic)][:top_k]
            fresh = [entry.node
                     for entry in per_topic.get(topic, [])][:top_k]
            distances.append(kendall_tau_distance(stored, fresh))
    if not distances:
        return 0.0
    return sum(distances) / len(distances)
