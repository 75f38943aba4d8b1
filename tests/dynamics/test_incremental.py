"""Tests for the flush-time incremental maintainer.

The contract under test: after any seeded churn stream, a flushed
:class:`IncrementalMaintainer` leaves the index **bitwise-identical**
to a from-scratch :meth:`LandmarkIndex.build` on the post-churn graph.
"""

import dataclasses

import pytest

from repro import ScoreParams
from repro.api import Maintainer, MaintenanceStats
from repro.config import LandmarkParams
from repro.core.fast import scipy_available
from repro.datasets import generate_twitter_graph
from repro.dynamics import (BatchMaintainer, EagerMaintainer, GraphStream,
                            IncrementalMaintainer, NoOpMaintainer,
                            TTLMaintainer, simulate_churn)
from repro.dynamics.events import EdgeEvent, EventKind
from repro.landmarks import LandmarkIndex

TOPIC = "technology"

ENGINES = ["dict"] + (["sparse"] if scipy_available() else [])


def _build_index(graph, web_sim, landmarks, params, top_n=100,
                 engine="dict", precompute_depth=20):
    return LandmarkIndex.build(
        graph, landmarks, [TOPIC], web_sim, params=params, engine=engine,
        landmark_params=LandmarkParams(
            num_landmarks=len(landmarks), top_n=top_n,
            query_depth=min(precompute_depth, 2),
            precompute_depth=precompute_depth))


def _entries_identical(index, reference, landmarks):
    """Bitwise comparison of every stored entry (no tolerance)."""
    for landmark in landmarks:
        ours = index.recommendations(landmark, TOPIC)
        theirs = reference.recommendations(landmark, TOPIC)
        assert [(e.node, e.score, e.topo, e.topo_ab) for e in ours] == \
               [(e.node, e.score, e.topo, e.topo_ab) for e in theirs], \
               f"landmark {landmark} diverged"


class TestBitwiseParity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_churn_stream_matches_full_rebuild(self, web_sim, engine):
        params = ScoreParams(beta=0.004)
        graph = generate_twitter_graph(180, seed=301)
        landmarks = sorted(graph.nodes(),
                           key=lambda n: -graph.in_degree(n))[:6]
        index = _build_index(graph, web_sim, landmarks, params,
                             engine=engine)
        maintainer = IncrementalMaintainer(graph, index, [TOPIC], web_sim,
                                           params)
        stream = GraphStream(graph)
        stream.subscribe(maintainer.on_event)
        stream.apply_all(simulate_churn(graph, 40, seed=301))

        reference = _build_index(graph, web_sim, landmarks, params,
                                 engine=engine)
        _entries_identical(index, reference, landmarks)
        assert maintainer.stats.events_seen == stream.applied

    @pytest.mark.parametrize("engine", ENGINES)
    def test_batched_flush_matches(self, web_sim, engine):
        """flush_every=0 defers all work to one explicit flush."""
        params = ScoreParams(beta=0.004)
        graph = generate_twitter_graph(150, seed=302)
        landmarks = sorted(graph.nodes(),
                           key=lambda n: -graph.in_degree(n))[:5]
        index = _build_index(graph, web_sim, landmarks, params,
                             engine=engine)
        maintainer = IncrementalMaintainer(graph, index, [TOPIC], web_sim,
                                           params, flush_every=0)
        stream = GraphStream(graph)
        stream.subscribe(maintainer.on_event)
        stream.apply_all(simulate_churn(graph, 30, seed=302))
        assert maintainer.pending_events == stream.applied
        assert maintainer.stats.rebuild_rounds == 0
        maintainer.flush()
        assert maintainer.pending_events == 0

        reference = _build_index(graph, web_sim, landmarks, params,
                                 engine=engine)
        _entries_identical(index, reference, landmarks)

    def test_retopic_events_tracked(self, web_sim):
        params = ScoreParams(beta=0.004)
        graph = generate_twitter_graph(120, seed=303)
        landmarks = sorted(graph.nodes(),
                           key=lambda n: -graph.in_degree(n))[:4]
        index = _build_index(graph, web_sim, landmarks, params)
        maintainer = IncrementalMaintainer(graph, index, [TOPIC], web_sim,
                                           params)
        stream = GraphStream(graph)
        stream.subscribe(maintainer.on_event)
        relabelled = 0
        for source, target, _ in list(graph.edges()):
            if relabelled >= 10:
                break
            stream.apply(EdgeEvent(EventKind.RETOPIC, source, target,
                                   (TOPIC, "sports"), relabelled))
            relabelled += 1
        assert relabelled == 10
        reference = _build_index(graph, web_sim, landmarks, params)
        _entries_identical(index, reference, landmarks)


class TestMaintainerProtocol:
    def test_all_five_satisfy_protocol(self, web_sim):
        params = ScoreParams(beta=0.004)
        graph = generate_twitter_graph(80, seed=306)
        landmarks = sorted(graph.nodes(),
                           key=lambda n: -graph.in_degree(n))[:3]
        index = _build_index(graph, web_sim, landmarks, params)
        maintainers = [
            NoOpMaintainer(graph, index, [TOPIC], web_sim, params),
            EagerMaintainer(graph, index, [TOPIC], web_sim, params),
            BatchMaintainer(graph, index, [TOPIC], web_sim, params),
            TTLMaintainer(graph, index, [TOPIC], web_sim, params),
            IncrementalMaintainer(graph, index, [TOPIC], web_sim, params),
        ]
        for maintainer in maintainers:
            assert isinstance(maintainer, Maintainer)
            stats = maintainer.stats
            assert isinstance(stats, MaintenanceStats)
            with pytest.raises(dataclasses.FrozenInstanceError):
                stats.events_seen = 99

    def test_stats_snapshots_do_not_alias(self, web_sim):
        params = ScoreParams(beta=0.004)
        graph = generate_twitter_graph(80, seed=307)
        landmarks = sorted(graph.nodes(),
                           key=lambda n: -graph.in_degree(n))[:3]
        index = _build_index(graph, web_sim, landmarks, params)
        maintainer = NoOpMaintainer(graph, index, [TOPIC], web_sim, params)
        stream = GraphStream(graph)
        stream.subscribe(maintainer.on_event)
        before = maintainer.stats
        stream.apply_all(simulate_churn(graph, 10, seed=307))
        assert before.events_seen == 0
        assert maintainer.stats.events_seen == stream.applied
        assert maintainer.stats.rebuilds_per_event == 0.0
