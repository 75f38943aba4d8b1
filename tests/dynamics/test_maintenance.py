"""Tests for landmark-index maintenance policies."""

import pytest

from repro import ScoreParams
from repro.config import LandmarkParams
from repro.core.fast import scipy_available
from repro.datasets import generate_twitter_graph
from repro.dynamics import (
    BatchMaintainer,
    EagerMaintainer,
    GraphStream,
    IncrementalMaintainer,
    NoOpMaintainer,
    TTLMaintainer,
    measure_staleness,
    simulate_churn,
)
from repro.errors import ConfigurationError
from repro.landmarks import LandmarkIndex, select_landmarks

PARAMS = ScoreParams(beta=0.004)
TOPIC = "technology"


@pytest.fixture()
def world(web_sim):
    graph = generate_twitter_graph(200, seed=55)
    landmarks = select_landmarks(graph, "In-Deg", 10, rng=1)
    index = LandmarkIndex.build(
        graph, landmarks, [TOPIC], web_sim, params=PARAMS,
        landmark_params=LandmarkParams(num_landmarks=10, top_n=50))
    return graph, index


class TestNoOpBaseline:
    def test_counts_events_but_never_rebuilds(self, world, web_sim):
        graph, index = world
        maintainer = NoOpMaintainer(graph, index, [TOPIC], web_sim, PARAMS)
        stream = GraphStream(graph)
        stream.subscribe(maintainer.on_event)
        stream.apply_all(simulate_churn(graph, 100, seed=2))
        assert maintainer.stats.events_seen > 0
        assert maintainer.stats.landmarks_rebuilt == 0

    def test_index_goes_stale_under_churn(self, world, web_sim):
        graph, index = world
        fresh = measure_staleness(graph, index, TOPIC, web_sim, PARAMS,
                                  sample=index.landmarks[:4])
        assert fresh == pytest.approx(0.0, abs=1e-12)
        stream = GraphStream(graph)
        stream.apply_all(simulate_churn(graph, 600, seed=2))
        stale = measure_staleness(graph, index, TOPIC, web_sim, PARAMS,
                                  sample=index.landmarks[:4])
        assert stale > 0.0


class TestEagerMaintainer:
    def test_keeps_index_nearly_fresh(self, world, web_sim):
        """The watch-set trigger is approximate (events outside every
        stored list can still perturb scores through the global
        authority normaliser), so the eager policy keeps staleness
        *near* zero rather than exactly zero."""
        graph, index = world
        maintainer = EagerMaintainer(graph, index, [TOPIC], web_sim, PARAMS)
        stream = GraphStream(graph)
        stream.subscribe(maintainer.on_event)
        stream.apply_all(simulate_churn(graph, 150, seed=3))
        staleness = measure_staleness(graph, index, TOPIC, web_sim, PARAMS,
                                      sample=index.landmarks[:4])
        assert staleness < 0.05
        assert maintainer.stats.landmarks_rebuilt > 0

    def test_untouched_events_cost_nothing(self, world, web_sim):
        graph, index = world
        maintainer = EagerMaintainer(graph, index, [TOPIC], web_sim, PARAMS)
        from repro.dynamics.events import EdgeEvent, EventKind

        # an edge between two fresh nodes no landmark has ever stored
        graph.add_node(9001)
        graph.add_node(9002)
        stream = GraphStream(graph)
        stream.subscribe(maintainer.on_event)
        stream.apply(EdgeEvent(EventKind.FOLLOW, 9001, 9002,
                               ("technology",), 0))
        assert maintainer.stats.landmarks_rebuilt == 0


class TestBatchMaintainer:
    def test_amortises_rebuilds(self, world, web_sim):
        graph, index = world
        eager_graph = graph.copy()
        eager_index = LandmarkIndex.build(
            eager_graph, list(index.landmarks), [TOPIC], web_sim,
            params=PARAMS,
            landmark_params=index.landmark_params)
        eager = EagerMaintainer(eager_graph, eager_index, [TOPIC], web_sim,
                                PARAMS)
        batch = BatchMaintainer(graph, index, [TOPIC], web_sim, PARAMS,
                                dirty_threshold=0.5)
        events = list(simulate_churn(graph, 120, seed=4))
        eager_stream = GraphStream(eager_graph)
        eager_stream.subscribe(eager.on_event)
        eager_stream.apply_all(events)
        batch_stream = GraphStream(graph)
        batch_stream.subscribe(batch.on_event)
        batch_stream.apply_all(events)
        assert batch.stats.landmarks_rebuilt <= eager.stats.landmarks_rebuilt

    def test_flush_clears_dirty_set(self, world, web_sim):
        graph, index = world
        batch = BatchMaintainer(graph, index, [TOPIC], web_sim, PARAMS,
                                dirty_threshold=1.0,
                                max_pending_events=10_000)
        stream = GraphStream(graph)
        stream.subscribe(batch.on_event)
        stream.apply_all(simulate_churn(graph, 60, seed=5))
        if batch.dirty_count:
            batch.flush()
        assert batch.dirty_count == 0

    def test_threshold_validation(self, world, web_sim):
        graph, index = world
        with pytest.raises(ConfigurationError):
            BatchMaintainer(graph, index, [TOPIC], web_sim, PARAMS,
                            dirty_threshold=0.0)


class TestTTLMaintainer:
    def test_rebuilds_on_schedule(self, world, web_sim):
        graph, index = world
        maintainer = TTLMaintainer(graph, index, [TOPIC], web_sim, PARAMS,
                                   ttl_events=50)
        stream = GraphStream(graph)
        stream.subscribe(maintainer.on_event)
        stream.apply_all(simulate_churn(graph, 120, seed=6))
        # at least two full refresh rounds' worth in ~120 applied events
        assert maintainer.stats.rebuild_rounds >= 2
        assert maintainer.stats.landmarks_rebuilt >= 2 * len(index)

    def test_amortised_cost_is_size_over_ttl(self, world, web_sim):
        """The schedule pays |Λ|/ttl rebuilds per event — never a burst
        of the whole landmark set at once."""
        graph, index = world
        ttl = 50
        maintainer = TTLMaintainer(graph, index, [TOPIC], web_sim, PARAMS,
                                   ttl_events=ttl)
        stream = GraphStream(graph)
        stream.subscribe(maintainer.on_event)
        stream.apply_all(simulate_churn(graph, 120, seed=6))
        events = maintainer.stats.events_seen
        assert events >= ttl
        # exactly floor(|Λ|·e / ttl) rebuilds after e events
        expected = (len(index) * events) // ttl
        assert maintainer.stats.landmarks_rebuilt == expected
        assert maintainer.stats.rebuilds_per_event == pytest.approx(
            len(index) / ttl, rel=0.25)
        # one full ttl window has elapsed, so every landmark got a turn
        assert maintainer.rebuilt_ever == set(index.landmarks)

    def test_batches_bounded_and_round_robin(self, world, web_sim):
        """Per-tick batches never exceed ⌈|Λ|/ttl⌉ and walk the sorted
        landmark list with a wrapping cursor."""
        import math

        from repro.dynamics.events import EdgeEvent, EventKind

        graph, index = world
        ttl = 3
        maintainer = TTLMaintainer(graph, index, [TOPIC], web_sim, PARAMS,
                                   ttl_events=ttl)
        batches = []
        maintainer.rebuild = batches.append  # record schedule, skip work
        for tick in range(6):
            maintainer.on_event(EdgeEvent(EventKind.FOLLOW, 9001, 9002,
                                          ("technology",), tick))
        cap = math.ceil(len(index) / ttl)
        assert batches and all(len(batch) <= cap for batch in batches)
        flat = [lm for batch in batches for lm in batch]
        assert len(flat) == (len(index) * 6) // ttl
        order = sorted(index.landmarks)
        assert flat == [order[i % len(order)] for i in range(len(flat))]

    def test_ttl_validation(self, world, web_sim):
        graph, index = world
        with pytest.raises(ConfigurationError):
            TTLMaintainer(graph, index, [TOPIC], web_sim, PARAMS,
                          ttl_events=0)


class TestRebuildCorrectness:
    def test_full_rebuild_matches_fresh_build(self, world, web_sim):
        """A rebuild of every landmark on the mutated graph must equal
        an index built from scratch on it — the rebuild mechanics are
        exact even though the *trigger* is heuristic."""
        graph, index = world
        maintainer = EagerMaintainer(graph, index, [TOPIC], web_sim, PARAMS)
        stream = GraphStream(graph)
        stream.subscribe(maintainer.on_event)
        stream.apply_all(simulate_churn(graph, 100, seed=7))
        maintainer.rebuild(sorted(index.landmarks))
        assert maintainer.rebuilt_ever == set(index.landmarks)
        scratch = LandmarkIndex.build(
            graph, list(index.landmarks), [TOPIC], web_sim, params=PARAMS,
            landmark_params=index.landmark_params)
        for landmark in index.landmarks:
            maintained = index.recommendations(landmark, TOPIC)
            rebuilt = scratch.recommendations(landmark, TOPIC)
            assert [e.node for e in maintained] == [e.node for e in rebuilt]
            for ours, theirs in zip(maintained, rebuilt):
                assert ours.score == pytest.approx(theirs.score)

    def test_rebuild_bitwise_matches_fresh_dict_build(self, world, web_sim):
        """Entries ``rebuild`` writes into a dict-built index are
        bitwise-identical to a fresh dict-engine build — same
        propagation, same accumulation order, byte-for-byte the same
        floats."""
        graph, built = world
        index = LandmarkIndex.build(
            graph, list(built.landmarks), [TOPIC], web_sim, params=PARAMS,
            landmark_params=built.landmark_params, engine="dict")
        maintainer = NoOpMaintainer(graph, index, [TOPIC], web_sim, PARAMS)
        stream = GraphStream(graph)
        stream.subscribe(maintainer.on_event)
        stream.apply_all(simulate_churn(graph, 80, seed=11))
        maintainer.rebuild(sorted(index.landmarks))
        scratch = LandmarkIndex.build(
            graph, list(index.landmarks), [TOPIC], web_sim, params=PARAMS,
            landmark_params=index.landmark_params, engine="dict")
        for landmark in index.landmarks:
            maintained = index.recommendations(landmark, TOPIC)
            rebuilt = scratch.recommendations(landmark, TOPIC)
            assert len(maintained) == len(rebuilt)
            for ours, theirs in zip(maintained, rebuilt):
                assert ours.node == theirs.node
                assert ours.score == theirs.score
                assert ours.topo == theirs.topo
                assert ours.topo_ab == theirs.topo_ab


REBUILD_ENGINES = ["dict"] + (["sparse"] if scipy_available() else [])
DEFAULT_DEPTH = LandmarkParams().precompute_depth


class TestRebuildMatchesBuild:
    """Every maintainer's ``rebuild`` goes through the build's own list
    builder: on an unchanged graph it must rewrite every list bitwise
    as the build stored it, whatever the engine and depth cap."""

    @pytest.mark.parametrize("depth", [2, DEFAULT_DEPTH],
                             ids=["depth2", "default-depth"])
    @pytest.mark.parametrize("engine", REBUILD_ENGINES)
    @pytest.mark.parametrize("policy", [EagerMaintainer, BatchMaintainer,
                                        TTLMaintainer, IncrementalMaintainer])
    def test_rebuild_on_unchanged_graph_is_bitwise(self, web_sim, policy,
                                                   engine, depth):
        graph = generate_twitter_graph(400, seed=58)
        landmarks = select_landmarks(graph, "In-Deg", 6, rng=1)
        landmark_params = LandmarkParams(num_landmarks=6, top_n=50,
                                         query_depth=2,
                                         precompute_depth=depth)

        def build():
            return LandmarkIndex.build(
                graph, landmarks, [TOPIC], web_sim, params=PARAMS,
                landmark_params=landmark_params, engine=engine)

        reference = build()
        index = build()
        maintainer = policy(graph, index, [TOPIC], web_sim, PARAMS)
        maintainer.rebuild(list(index.landmarks))
        assert maintainer.stats.landmarks_rebuilt == len(landmarks)
        for landmark in landmarks:
            ours = index.recommendations(landmark, TOPIC)
            theirs = reference.recommendations(landmark, TOPIC)
            assert [(e.node, e.score, e.topo, e.topo_ab) for e in ours] == \
                [(e.node, e.score, e.topo, e.topo_ab) for e in theirs], \
                f"landmark {landmark} diverged from the build"
