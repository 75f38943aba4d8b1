"""The ingest pipeline: contracts, compaction triggers, rollover wiring."""

import dataclasses

import pytest

from repro.api import IngestEvent, IngestResponse
from repro.config import LandmarkParams, ScoreParams
from repro.datasets import generate_twitter_graph
from repro.distributed.sharded import ShardedPlatform
from repro.dynamics import simulate_churn
from repro.errors import ConfigurationError, StaleSnapshotError
from repro.ingest import CompactionPolicy, IngestPipeline
from repro.landmarks import LandmarkIndex, select_landmarks
from repro.obs import runtime as rt

TOPIC = "technology"
PARAMS = ScoreParams(beta=0.004)


def _ingest_events(graph, count, seed, retopic_fraction=0.2):
    return [
        IngestEvent(kind=event.kind.value, source=event.source,
                    target=event.target,
                    topics=tuple(event.topics or ()), time=event.time)
        for event in simulate_churn(graph, count, seed=seed,
                                    retopic_fraction=retopic_fraction)]


def _platform(web_sim, nodes=120, seed=41, num_shards=2, landmarks=6,
              replicas=1):
    graph = generate_twitter_graph(nodes, seed=seed)
    chosen = select_landmarks(graph, "In-Deg", landmarks, rng=seed)
    index = LandmarkIndex.build(
        graph, chosen, [TOPIC], web_sim, params=PARAMS,
        landmark_params=LandmarkParams(num_landmarks=landmarks, top_n=50))
    return graph, ShardedPlatform.build(graph, web_sim, index, num_shards,
                                        params=PARAMS, replicas=replicas)


class TestIngestEventContract:
    def test_frozen_and_validated(self):
        event = IngestEvent(kind="follow", source=1, target=2,
                            topics=(TOPIC,), time=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.kind = "unfollow"
        with pytest.raises(ConfigurationError):
            IngestEvent(kind="defollow", source=1, target=2)
        with pytest.raises(ConfigurationError):
            IngestEvent(kind="follow", source=3, target=3)

    def test_to_edge_event_round_trip(self):
        from repro.graph.events import EventKind

        event = IngestEvent(kind="retopic", source=1, target=2,
                            topics=("sports",), time=9)
        edge = event.to_edge_event()
        assert edge.kind is EventKind.RETOPIC
        assert (edge.source, edge.target) == (1, 2)
        assert edge.topics == ("sports",)
        assert edge.time == 9


class TestCompactionPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CompactionPolicy(max_events=0)
        with pytest.raises(ConfigurationError):
            CompactionPolicy(max_events=None, max_overlay_edges=None,
                             max_seconds=None)

    def test_wall_clock_trigger_uses_injected_clock(self, web_sim):
        graph, platform = _platform(web_sim)
        now = [0.0]
        pipeline = IngestPipeline(
            platform, web_sim, [TOPIC],
            policy=CompactionPolicy(max_events=None, max_seconds=5.0),
            clock=lambda: now[0])
        events = _ingest_events(graph, 6, seed=2)
        first = pipeline.submit(events[0])
        assert not first.compacted
        now[0] = 10.0  # oldest pending event is now 10s old
        second = pipeline.submit(events[1])
        assert second.compacted
        assert pipeline.pending_events == 0

    def test_overlay_size_trigger(self, web_sim):
        graph, platform = _platform(web_sim)
        pipeline = IngestPipeline(
            platform, web_sim, [TOPIC],
            policy=CompactionPolicy(max_events=None, max_overlay_edges=3))
        compacted = [response.compacted for response in
                     pipeline.submit_all(_ingest_events(graph, 10, seed=3))]
        assert any(compacted)


class TestPipelineServing:
    def test_epoch_advances_and_serving_never_goes_stale(self, web_sim):
        graph, platform = _platform(web_sim)
        start_epoch = platform.epoch
        pipeline = IngestPipeline(platform, web_sim, [TOPIC],
                                  policy=CompactionPolicy(max_events=8))
        users = [node for node in sorted(graph.nodes())
                 if graph.out_degree(node) >= 3][:3]
        for event in _ingest_events(graph, 30, seed=4):
            pipeline.submit(event)
            for user in users:  # reads interleave with every write
                try:
                    platform.recommend(user, TOPIC, top_n=5)
                except StaleSnapshotError:  # pragma: no cover
                    pytest.fail("client observed StaleSnapshotError")
        assert pipeline.compactions_total >= 3
        assert platform.epoch > start_epoch
        assert platform.epoch == pipeline.servable_epoch

    def test_responses_report_epochs_and_pending(self, web_sim):
        graph, platform = _platform(web_sim)
        pipeline = IngestPipeline(platform, web_sim, [TOPIC],
                                  policy=CompactionPolicy(max_events=5))
        responses = pipeline.submit_all(_ingest_events(graph, 12, seed=5))
        assert all(isinstance(r, IngestResponse) for r in responses)
        for response in responses:
            assert response.ingest_epoch >= response.servable_epoch
            if response.compacted:
                assert response.pending_events == 0
        applied = [r for r in responses if r.applied]
        skipped = [r for r in responses if not r.applied]
        assert len(applied) == pipeline.events_total
        assert len(skipped) == pipeline.events_skipped

    def test_manual_compact_drains_overlay(self, web_sim):
        graph, platform = _platform(web_sim)
        pipeline = IngestPipeline(platform, web_sim, [TOPIC],
                                  policy=CompactionPolicy(max_events=10**6))
        pipeline.submit_all(_ingest_events(graph, 7, seed=6))
        assert pipeline.pending_events > 0
        snapshot = pipeline.compact()
        assert pipeline.pending_events == 0
        assert platform.epoch == snapshot.epoch
        assert pipeline.servable_epoch == snapshot.epoch

    def test_auto_flip_false_leaves_pending_rollover(self, web_sim):
        """The chaos harness contract: with auto_flip=False the
        pipeline begins rollovers but never flips eagerly; the *next*
        compaction flips the previous pending one first, so
        begin_rollover never raises mid-stream."""
        graph, platform = _platform(web_sim)
        pipeline = IngestPipeline(platform, web_sim, [TOPIC],
                                  policy=CompactionPolicy(max_events=10**6),
                                  auto_flip=False)
        pipeline.submit_all(_ingest_events(graph, 6, seed=7))
        old_epoch = platform.epoch
        pipeline.compact()
        pending = platform.pending_rollover
        assert pending is not None and not pending.flipped
        assert platform.epoch == old_epoch  # still serving the old base
        pipeline.submit_all(_ingest_events(graph, 6, seed=8))
        pipeline.compact()  # flips the first, begins a second
        assert platform.epoch > old_epoch
        assert platform.pending_rollover is not None
        platform.pending_rollover.flip()
        assert platform.pending_rollover is None

    def test_maintained_index_matches_full_rebuild(self, web_sim):
        """After draining a stream the in-place-maintained index is
        bitwise-identical to building from scratch on the final base."""
        graph, platform = _platform(web_sim)
        landmarks = list(platform.index.landmarks)
        pipeline = IngestPipeline(platform, web_sim, [TOPIC],
                                  policy=CompactionPolicy(max_events=9))
        pipeline.submit_all(_ingest_events(graph, 25, seed=9))
        final = pipeline.compact()
        reference = LandmarkIndex.build(
            final, landmarks, [TOPIC], web_sim, params=PARAMS,
            landmark_params=platform.index.landmark_params,
            engine=platform.index.engine_used or "dict")
        for landmark in landmarks:
            ours = [(e.node, e.score, e.topo, e.topo_ab)
                    for e in platform.index.recommendations(landmark, TOPIC)]
            theirs = [(e.node, e.score, e.topo, e.topo_ab)
                      for e in reference.recommendations(landmark, TOPIC)]
            assert ours == theirs, f"landmark {landmark} diverged"


def _live(platform):
    return [len(replica_set.live()) for replica_set in platform.replica_sets]


class TestReplicaHealthAcrossFlips:
    """An operator's down mark is platform state, not worker state: the
    compaction rollovers the pipeline drives must not bring a downed
    replica back into rotation."""

    def _world(self, web_sim):
        graph, platform = _platform(web_sim, nodes=300, num_shards=3,
                                    replicas=2)
        users = [n for n in sorted(graph.nodes())
                 if graph.out_degree(n) >= 3
                 and n not in set(platform.index.landmarks)
                 and platform.router.shard_of(n) == 0][:10]
        return graph, platform, users

    def _degraded(self, platform, users):
        return sum(platform.recommend(user, TOPIC, top_n=10).degraded
                   for _ in range(4) for user in users)

    def test_down_shard_stays_down_across_compactions(self, web_sim):
        graph, platform, users = self._world(web_sim)
        platform.mark_down(2)
        assert _live(platform) == [2, 2, 0]
        assert self._degraded(platform, users) == 40
        pipeline = IngestPipeline(platform, web_sim, [TOPIC],
                                  policy=CompactionPolicy(max_events=16))
        rt.enable(reset=True)
        try:
            pipeline.submit_all(_ingest_events(graph, 40, seed=5))
            gauges = rt.snapshot()["gauges"]
        finally:
            rt.disable()
        assert pipeline.compactions_total == 2
        assert _live(platform) == [2, 2, 0]
        assert gauges["shard.2.replicas_live"] == 0.0
        assert gauges["shard.0.replicas_live"] == 2.0
        assert self._degraded(platform, users) == 40

    def test_mark_during_pending_rollover_reaches_warming_workers(
            self, web_sim):
        graph, platform, users = self._world(web_sim)
        pipeline = IngestPipeline(platform, web_sim, [TOPIC],
                                  policy=CompactionPolicy(max_events=10_000),
                                  auto_flip=False)
        pipeline.submit_all(_ingest_events(graph, 20, seed=6))
        pipeline.compact()
        rollover = platform.pending_rollover
        platform.mark_down(1, replica=0)
        platform.mark_down(2)
        platform.mark_up(2)
        rollover.flip()
        assert _live(platform) == [2, 1, 2]
        assert platform.replica_sets[1].primary().replica_id == 1
        assert self._degraded(platform, users) == 0


class TestIngestGauges:
    def test_backlog_and_snapshot_epoch_read_current_values(self, web_sim):
        graph, platform = _platform(web_sim)
        pipeline = IngestPipeline(platform, web_sim, [TOPIC],
                                  policy=CompactionPolicy(max_events=16))
        events = iter(_ingest_events(graph, 200, seed=8))
        rt.enable(reset=True)
        try:
            while pipeline.events_total < 24:
                pipeline.submit(next(events))
            gauges = rt.snapshot()["gauges"]
        finally:
            rt.disable()
        assert pipeline.compactions_total == 1
        assert gauges["ingest.pending_events"] == 8.0
        assert gauges["graph.snapshot_epoch"] == pipeline.servable_epoch
