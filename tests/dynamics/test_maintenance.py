"""Tests for the staleness probe and flush-time refresh faithfulness."""

import pytest

from repro import ScoreParams
from repro.config import LandmarkParams
from repro.core.fast import scipy_available
from repro.datasets import generate_twitter_graph
from repro.dynamics import (
    GraphStream,
    IncrementalMaintainer,
    measure_staleness,
    simulate_churn,
)
from repro.dynamics.events import EdgeEvent, EventKind
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
    def test_index_goes_stale_under_churn(self, world, web_sim):
        graph, index = world
        fresh = measure_staleness(graph, index, TOPIC, web_sim,
                                  sample=index.landmarks[:4])
        assert fresh == pytest.approx(0.0, abs=1e-12)
        stream = GraphStream(graph)
        stream.apply_all(simulate_churn(graph, 600, seed=2))
        stale = measure_staleness(graph, index, TOPIC, web_sim,
                                  sample=index.landmarks[:4])
        assert stale > 0.0


ENGINES = ["dict"] + (["sparse"] if scipy_available() else [])
DEFAULT_DEPTH = LandmarkParams().precompute_depth
DEPTHS = pytest.mark.parametrize("depth", [2, DEFAULT_DEPTH],
                                 ids=["depth2", "default-depth"])


def _depth_world(web_sim, engine, depth):
    """A 400-node graph and a 6-landmark index with the given builder."""
    graph = generate_twitter_graph(400, seed=58)
    landmarks = select_landmarks(graph, "In-Deg", 6, rng=1)
    landmark_params = LandmarkParams(num_landmarks=6, top_n=50,
                                     query_depth=2, precompute_depth=depth)

    def build():
        return LandmarkIndex.build(
            graph, landmarks, [TOPIC], web_sim, params=PARAMS,
            landmark_params=landmark_params, engine=engine)

    return graph, landmarks, build


def _lists(index, landmarks):
    return {landmark: [(e.node, e.score, e.topo, e.topo_ab)
                       for e in index.recommendations(landmark, TOPIC)]
            for landmark in landmarks}


class TestRebuildMatchesBuild:
    """A flush goes through the build's own list builder: on an
    unchanged graph it must rewrite every list bitwise as the build
    stored it, whatever the engine and depth cap."""

    @DEPTHS
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rebuild_on_unchanged_graph_is_bitwise(self, web_sim, engine,
                                                   depth):
        graph, landmarks, build = _depth_world(web_sim, engine, depth)
        reference = build()
        index = build()
        maintainer = IncrementalMaintainer(graph, index, [TOPIC], web_sim)
        maintainer.on_event(EdgeEvent(EventKind.FOLLOW, 9001, 9002,
                                      (TOPIC,), 0))
        assert maintainer.flush() == len(landmarks)
        assert maintainer.stats.landmarks_rebuilt == len(landmarks)
        assert _lists(index, landmarks) == _lists(reference, landmarks)


class TestStalenessIsEngineFaithful:
    """The probe re-ranks with the index's own builder, so a freshly
    built index reads exactly 0 — also under a ``precompute_depth``
    cap, which a re-rank at unbounded depth would misread as drift."""

    @DEPTHS
    @pytest.mark.parametrize("engine", ENGINES)
    def test_unchanged_graph_reads_zero(self, web_sim, engine, depth):
        graph, landmarks, build = _depth_world(web_sim, engine, depth)
        index = build()
        before = _lists(index, landmarks)
        assert measure_staleness(graph, index, TOPIC, web_sim) == 0.0
        assert measure_staleness(graph, index, TOPIC, web_sim,
                                 sample=landmarks[:3]) == 0.0
        assert _lists(index, landmarks) == before
        assert index.mutation_count == 0
