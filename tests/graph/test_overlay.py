"""Property-style equivalence: overlay + compaction == full rebuild.

ISSUE 10, satellite 3. For random seeded event streams, applying the
events to a :class:`DeltaSnapshot` overlay and compacting must equal
rebuilding ``LabeledSocialGraph.snapshot()`` from scratch **bitwise**
— every CSR array, the interned label table, the topic vocabulary,
the profiles, and the epoch counter. On top of the raw arrays, the
recommendation rankings produced over the compacted base must be
pinned for both ``query_engine=dict`` and ``sparse``, and identical
when served through 1-, 2-, and 7-shard platforms.
"""

import numpy as np
import pytest

from repro.config import LandmarkParams, ScoreParams
from repro.core.fast import scipy_available
from repro.datasets import generate_twitter_graph
from repro.dynamics import GraphStream, simulate_churn
from repro.graph.overlay import DeltaSnapshot
from repro.landmarks import LandmarkIndex, select_landmarks

TOPIC = "technology"
PARAMS = ScoreParams(beta=0.004)

CSR_FIELDS = ("out_indptr", "out_indices", "out_label_ids",
              "in_indptr", "in_indices", "in_label_ids")


def _replayed_pair(nodes, graph_seed, churn_seed, num_events,
                   retopic_fraction=0.2):
    """(compacted overlay base, from-scratch rebuild) over one stream."""
    graph = generate_twitter_graph(nodes, seed=graph_seed)
    events = list(simulate_churn(graph, num_events, seed=churn_seed,
                                 retopic_fraction=retopic_fraction))

    overlay = DeltaSnapshot(graph.snapshot())
    for event in events:
        overlay.apply(event)
    compacted = overlay.compact()

    reference_graph = generate_twitter_graph(nodes, seed=graph_seed)
    stream = GraphStream(reference_graph)
    stream.apply_all(iter(events))
    rebuilt = reference_graph.snapshot()
    return compacted, rebuilt, reference_graph


def _assert_bitwise(compacted, rebuilt):
    assert compacted.epoch == rebuilt.epoch
    assert compacted.node_ids == rebuilt.node_ids
    for field in CSR_FIELDS:
        ours = getattr(compacted, field)
        theirs = getattr(rebuilt, field)
        assert ours.dtype == theirs.dtype, field
        assert np.array_equal(ours, theirs), field
    assert compacted.labels == rebuilt.labels
    assert compacted.topic_list == rebuilt.topic_list
    assert np.array_equal(compacted.topic_ids, rebuilt.topic_ids)
    for node in rebuilt.node_ids:
        assert compacted.node_topics(node) == rebuilt.node_topics(node)


class TestCompactionEqualsRebuild:
    @pytest.mark.parametrize("graph_seed,churn_seed,num_events", [
        (11, 1, 40), (12, 2, 80), (13, 3, 120), (14, 4, 25),
    ])
    def test_bitwise_across_random_streams(self, graph_seed, churn_seed,
                                           num_events):
        compacted, rebuilt, _ = _replayed_pair(
            130, graph_seed, churn_seed, num_events)
        _assert_bitwise(compacted, rebuilt)

    def test_new_nodes_created_by_follows(self):
        """Events touching ids the base never saw create nodes on both
        paths identically (empty profiles, epoch bumps included)."""
        from repro.graph.events import EdgeEvent, EventKind

        graph = generate_twitter_graph(60, seed=21)
        events = [
            EdgeEvent(EventKind.FOLLOW, 900000, 0, (TOPIC,), 0),
            EdgeEvent(EventKind.FOLLOW, 0, 900001, (), 1),
            EdgeEvent(EventKind.FOLLOW, 900001, 900000, (TOPIC,), 2),
            EdgeEvent(EventKind.UNFOLLOW, 900000, 0, (), 3),
        ]
        overlay = DeltaSnapshot(graph.snapshot())
        for event in events:
            overlay.apply(event)
        compacted = overlay.compact()

        reference = generate_twitter_graph(60, seed=21)
        GraphStream(reference).apply_all(iter(events))
        _assert_bitwise(compacted, reference.snapshot())

    def test_skip_semantics_match_stream(self):
        """Unfollow/retopic of a missing edge is a no-op on both paths
        and costs zero epoch bumps."""
        from repro.graph.events import EdgeEvent, EventKind

        graph = generate_twitter_graph(60, seed=22)
        missing = [
            EdgeEvent(EventKind.UNFOLLOW, 0, 1, (), 0),
            EdgeEvent(EventKind.RETOPIC, 1, 0, (TOPIC,), 1),
        ]
        # Ensure those edges truly are absent from the generated graph.
        missing = [event for event in missing
                   if not graph.has_edge(event.source, event.target)]
        assert missing, "seed produced the probe edges; pick another seed"
        overlay = DeltaSnapshot(graph.snapshot())
        applied = [overlay.apply(event) for event in missing]
        assert not any(applied)
        assert overlay.events_skipped == len(missing)
        assert overlay.epoch == graph.snapshot().epoch


ENGINES = ["dict"] + (["sparse"] if scipy_available() else [])


class TestRankingParity:
    @pytest.fixture(scope="class")
    def world(self, web_sim):
        compacted, rebuilt, _ = _replayed_pair(130, 31, 5, 60)
        landmarks = select_landmarks(compacted, "In-Deg", 8, rng=31)
        users = [node for node in compacted.node_ids
                 if compacted.out_degree(node) >= 3
                 and node not in set(landmarks)][:4]
        return compacted, rebuilt, landmarks, users

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rankings_pinned_per_engine(self, world, web_sim, engine):
        """The index built on the compacted base answers exactly like
        the index built on the from-scratch rebuild, per engine."""
        from repro.landmarks import ApproximateRecommender

        compacted, rebuilt, landmarks, users = world
        kwargs = dict(
            params=PARAMS,
            landmark_params=LandmarkParams(num_landmarks=len(landmarks),
                                           top_n=60))
        ours = LandmarkIndex.build(compacted, landmarks, [TOPIC], web_sim,
                                   engine=engine, **kwargs)
        theirs = LandmarkIndex.build(rebuilt, landmarks, [TOPIC], web_sim,
                                     engine=engine, **kwargs)
        mine = ApproximateRecommender(compacted, web_sim, ours,
                                      params=PARAMS, query_engine=engine)
        other = ApproximateRecommender(rebuilt, web_sim, theirs,
                                       params=PARAMS, query_engine=engine)
        for user in users:
            assert mine.recommend(user, TOPIC, top_n=10).pairs() \
                == other.recommend(user, TOPIC, top_n=10).pairs()

    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_shard_count_invariance(self, world, web_sim, num_shards):
        """The compacted base serves identical rankings through 1, 2,
        and 7 shards — and they match the unsharded rebuild."""
        from repro.distributed.sharded import ShardedPlatform
        from repro.landmarks import ApproximateRecommender

        compacted, rebuilt, landmarks, users = world
        index = LandmarkIndex.build(
            compacted, landmarks, [TOPIC], web_sim, params=PARAMS,
            landmark_params=LandmarkParams(num_landmarks=len(landmarks),
                                           top_n=60))
        platform = ShardedPlatform.build(compacted, web_sim, index,
                                         num_shards, params=PARAMS)
        single = ApproximateRecommender(rebuilt, web_sim, index,
                                        params=PARAMS, query_engine="dict")
        for user in users:
            assert platform.recommend(user, TOPIC, top_n=10).pairs() \
                == single.recommend(user, TOPIC, top_n=10).pairs()
