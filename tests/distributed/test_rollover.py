"""Zero-downtime epoch rollover: warm beside, flip atomically, drain."""

import pytest

from repro import ScoreParams
from repro.config import LandmarkParams
from repro.datasets import generate_twitter_graph
from repro.distributed.sharded import EpochRollover, ShardedPlatform
from repro.dynamics import GraphStream, simulate_churn
from repro.errors import ConfigurationError, StaleSnapshotError
from repro.landmarks import (
    ApproximateRecommender,
    LandmarkIndex,
    select_landmarks,
)
from repro.obs import runtime as rt

PARAMS = ScoreParams(beta=0.004)
TOPIC = "technology"


def _world(web_sim, nodes=120, seed=9, num_landmarks=8):
    graph = generate_twitter_graph(nodes, seed=seed)
    landmarks = select_landmarks(graph, "In-Deg", num_landmarks, rng=1)
    index = LandmarkIndex.build(
        graph, landmarks, [TOPIC], web_sim, params=PARAMS,
        landmark_params=LandmarkParams(num_landmarks=num_landmarks,
                                       top_n=60))
    return graph, index


def _query_users(graph, index, count=4):
    return [n for n in sorted(graph.nodes())
            if graph.out_degree(n) >= 3
            and n not in set(index.landmarks)][:count]


def _mutate(graph, num_events=12, seed=3):
    stream = GraphStream(graph)
    applied = stream.apply_all(simulate_churn(graph, num_events, seed=seed))
    assert applied > 0
    return applied


class TestRollover:
    def test_pending_rollover_serves_old_epoch_without_stale_error(
            self, web_sim):
        graph, index = _world(web_sim)
        platform = ShardedPlatform.build(graph, web_sim, index, 3,
                                         params=PARAMS, replicas=2)
        user = _query_users(graph, index)[0]
        before = platform.recommend(user, TOPIC, top_n=5)
        old_epoch = platform.epoch
        _mutate(graph)
        # Without a rollover in progress staleness is still an error...
        with pytest.raises(StaleSnapshotError):
            platform.recommend(user, TOPIC, top_n=5)
        rt.enable(reset=True)
        try:
            rollover = platform.begin_rollover()
            # ... but while the next generation warms beside the old
            # one, the old epoch keeps serving: zero client errors.
            during = platform.recommend(user, TOPIC, top_n=5)
            counters = rt.snapshot()["counters"]
        finally:
            rt.disable()
        assert isinstance(rollover, EpochRollover)
        assert during.pairs() == before.pairs()
        assert during.served_epoch == old_epoch
        assert counters["shard.rollover.started_total"] == 1
        assert counters["shard.rollover.stale_served_total"] >= 1
        assert counters["shard.replica.warmups_total"] == 3 * 2

    def test_flip_switches_to_fresh_epoch_with_parity(self, web_sim):
        graph, index = _world(web_sim)
        platform = ShardedPlatform.build(graph, web_sim, index, 3,
                                         params=PARAMS, replicas=2)
        users = _query_users(graph, index)
        old_epoch = platform.epoch
        _mutate(graph)
        new_epoch = platform.rollover()
        assert new_epoch > old_epoch
        assert platform.epoch == new_epoch
        assert platform.pending_rollover is None
        fresh = ApproximateRecommender(
            graph, web_sim, platform.index, params=PARAMS,
            query_engine="dict")
        for user in users:
            got = platform.recommend(user, TOPIC, top_n=10)
            assert got.served_epoch == new_epoch
            assert got.degraded is False
            assert got.pairs() == fresh.recommend(user, TOPIC,
                                                  top_n=10).pairs()

    def test_flip_refused_until_replicas_are_ready(self, web_sim):
        graph, index = _world(web_sim)
        platform = ShardedPlatform.build(graph, web_sim, index, 3,
                                         params=PARAMS, replicas=2)
        _mutate(graph)
        rollover = platform.begin_rollover(warm=False)
        assert not rollover.ready
        states = {w.state
                  for rset in rollover.next_generation.replica_sets
                  for w in rset.replicas}
        assert states == {"warming"}
        with pytest.raises(ConfigurationError):
            rollover.flip()
        rollover.warm()
        assert rollover.ready
        rollover.flip()
        with pytest.raises(ConfigurationError):
            rollover.flip()  # one flip per rollover

    def test_only_one_rollover_at_a_time(self, web_sim):
        graph, index = _world(web_sim)
        platform = ShardedPlatform.build(graph, web_sim, index, 3,
                                         params=PARAMS)
        _mutate(graph)
        platform.begin_rollover(warm=False)
        with pytest.raises(ConfigurationError):
            platform.begin_rollover()
        platform.abandon_rollover()
        platform.begin_rollover().flip()

    def test_inflight_requests_drain_against_the_old_generation(
            self, web_sim):
        """A request that captured the pre-flip generation completes on
        it — same epoch, same answer — even after the flip landed."""
        graph, index = _world(web_sim)
        platform = ShardedPlatform.build(graph, web_sim, index, 3,
                                         params=PARAMS)
        user = _query_users(graph, index)[0]
        old_generation = platform._generation
        old_epoch = platform.epoch
        before = platform.recommend(user, TOPIC, top_n=5)
        _mutate(graph)
        platform.rollover()
        request = before.request
        rt.enable(reset=True)
        try:
            drained = platform._serve_on(old_generation, request)
            counters = rt.snapshot()["counters"]
        finally:
            rt.disable()
        assert drained.served_epoch == old_epoch
        assert drained.pairs() == before.pairs()
        assert counters["shard.rollover.drained_total"] == 1
        assert platform.recommend(user, TOPIC,
                                  top_n=5).served_epoch == platform.epoch


@pytest.mark.slow
class TestRolloverUnderLoad:
    def test_seeded_rollover_mid_stream_with_replica_killed(self, web_sim):
        """The acceptance simulation: churn events bump the epoch
        mid-stream, one replica dies during the warm window, and every
        response stays non-degraded, error-free, and bitwise-identical
        to the fresh-epoch single-process scorer after the flip."""
        graph, index = _world(web_sim, nodes=200, seed=4, num_landmarks=12)
        platform = ShardedPlatform.build(graph, web_sim, index, 4,
                                         params=PARAMS, replicas=2)
        users = _query_users(graph, index, count=5)
        stale_errors = 0
        responses = []

        def serve_wave():
            nonlocal stale_errors
            wave = []
            for user in users:
                try:
                    wave.append(platform.recommend(user, TOPIC, top_n=10))
                except StaleSnapshotError:
                    stale_errors += 1
            responses.extend(wave)
            return wave

        serve_wave()                      # healthy, old epoch
        _mutate(graph, num_events=20, seed=13)   # epoch bumps mid-stream
        rollover = platform.begin_rollover()     # driven by the events
        serve_wave()                      # warm window: old epoch serves
        platform.mark_down(1, replica=0)  # one replica killed mid-rollover
        serve_wave()                      # failover inside the old gen
        new_epoch = rollover.flip()
        platform.mark_down(1, replica=0)  # keep it dead in the new gen too
        post_flip = serve_wave()

        assert stale_errors == 0
        assert all(r.degraded is False for r in responses)
        fresh = ApproximateRecommender(
            graph, web_sim, platform.index, params=PARAMS,
            query_engine="dict")
        for user, got in zip(users, post_flip):
            assert got.served_epoch == new_epoch
            assert got.pairs() == fresh.recommend(user, TOPIC,
                                                  top_n=10).pairs()

    def test_rollover_simulation_is_deterministic(self, web_sim):
        """Two identical seeded runs of the mid-stream simulation
        produce bitwise-identical response sequences."""
        def run():
            graph, index = _world(web_sim, nodes=150, seed=6,
                                  num_landmarks=10)
            platform = ShardedPlatform.build(graph, web_sim, index, 3,
                                             params=PARAMS, replicas=2)
            users = _query_users(graph, index, count=4)
            out = [platform.recommend(u, TOPIC, top_n=10).pairs()
                   for u in users]
            _mutate(graph, num_events=10, seed=21)
            platform.begin_rollover()
            platform.mark_down(0, replica=0)
            out += [platform.recommend(u, TOPIC, top_n=10).pairs()
                    for u in users]
            platform.pending_rollover.flip()
            out += [platform.recommend(u, TOPIC, top_n=10).pairs()
                    for u in users]
            return out

        assert run() == run()
