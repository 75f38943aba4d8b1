"""Edge-case tests for corners the focused suites don't reach."""


import math

import pytest

from repro.errors import (
    ConvergenceError,
    EdgeNotFoundError,
    NodeNotFoundError,
    UnknownTopicError,
)


class TestErrorAttributes:
    def test_node_not_found_carries_node(self):
        error = NodeNotFoundError(42)
        assert error.node == 42
        assert "42" in str(error)

    def test_edge_not_found_carries_endpoints(self):
        error = EdgeNotFoundError(1, 2)
        assert (error.source, error.target) == (1, 2)

    def test_convergence_error_carries_diagnostics(self):
        error = ConvergenceError("no", iterations=7, residual=0.5)
        assert error.iterations == 7
        assert error.residual == 0.5

    def test_unknown_topic_carries_topic(self):
        assert UnknownTopicError("astrology").topic == "astrology"


class TestTraversalHelpers:
    def test_shortest_path_lengths_alias(self):
        from repro.graph.builders import path_graph
        from repro.graph.traversal import bfs_levels, shortest_path_lengths

        graph = path_graph(4)
        assert shortest_path_lengths(graph, 0) == bfs_levels(graph, 0)

    def test_sample_pairs_within_distance(self):
        from repro.graph.builders import path_graph
        from repro.graph.traversal import sample_pairs_within_distance

        graph = path_graph(5)
        result = sample_pairs_within_distance(graph, [0, 2], k=2)
        assert result[0] == {1, 2}
        assert result[2] == {3, 4}


class TestInformationContent:
    def test_root_has_zero_ic_and_leaves_the_most(self):
        from repro.semantics.similarity import uniform_information_content
        from repro.semantics.taxonomy import ROOT
        from repro.semantics.vocabularies import web_taxonomy

        taxonomy = web_taxonomy()
        content = uniform_information_content(taxonomy)
        assert content[ROOT] == 0.0
        leaf_ic = min(content[leaf] for leaf in taxonomy.leaves())
        internal = content["leisure"]
        assert leaf_ic > internal  # leaves are more informative


class TestTwitterRankDangling:
    def test_dangling_mass_redistributed(self):
        """A sink node (no followees) must not leak probability mass."""
        from repro.baselines import TwitterRank
        from repro.graph.builders import graph_from_edges

        graph = graph_from_edges(
            [(0, 1, ["technology"])],
            node_topics={0: ["technology"], 1: ["technology"]})
        ranking = TwitterRank(graph).rank("technology")
        assert math.fsum(ranking.values()) == pytest.approx(1.0, abs=1e-9)
        assert ranking[1] > ranking[0]


class TestIncrementalEdgeCases:
    def test_event_on_unwatched_source_is_noop(self, web_sim):
        from repro import ScoreParams
        from repro.config import LandmarkParams
        from repro.dynamics import GraphStream, IncrementalMaintainer
        from repro.dynamics.events import EdgeEvent, EventKind
        from repro.graph.builders import path_graph
        from repro.landmarks import LandmarkIndex

        params = ScoreParams(beta=0.2)
        graph = path_graph(4, topics=["technology"])
        graph.add_node(10, topics=["technology"])
        graph.add_node(11, topics=["technology"])
        index = LandmarkIndex.build(
            graph, [0], ["technology"], web_sim, params=params,
            landmark_params=LandmarkParams(num_landmarks=1, top_n=10))
        before = list(index.recommendations(0, "technology"))
        maintainer = IncrementalMaintainer(graph, index, ["technology"],
                                           web_sim, params)
        stream = GraphStream(graph)
        stream.subscribe(maintainer.on_event)
        # 10 is not in any stored list -> no delta can be computed
        stream.apply(EdgeEvent(EventKind.FOLLOW, 10, 11, ("technology",), 0))
        assert list(index.recommendations(0, "technology")) == before

    def test_edge_out_of_the_landmark_itself(self, web_sim):
        """a == λ uses the empty-walk base case (topo = 1, σ = 0)."""
        from repro import ScoreParams
        from repro.config import LandmarkParams
        from repro.dynamics import GraphStream, IncrementalMaintainer
        from repro.dynamics.events import EdgeEvent, EventKind
        from repro.graph.builders import path_graph
        from repro.landmarks import LandmarkIndex

        params = ScoreParams(beta=0.2)
        graph = path_graph(3, topics=["technology"])
        for i in range(2):
            graph.set_edge_topics(i, i + 1, ["technology"])
        graph.add_node(5, topics=["technology"])
        index = LandmarkIndex.build(
            graph, [0], ["technology"], web_sim, params=params,
            landmark_params=LandmarkParams(num_landmarks=1, top_n=10))
        maintainer = IncrementalMaintainer(graph, index, ["technology"],
                                           web_sim, params)
        stream = GraphStream(graph)
        stream.subscribe(maintainer.on_event)
        stream.apply(EdgeEvent(EventKind.FOLLOW, 0, 5, ("technology",), 0))
        fresh = LandmarkIndex.build(
            graph, [0], ["technology"], web_sim, params=params,
            landmark_params=LandmarkParams(num_landmarks=1, top_n=10))
        ours = {e.node: e.score
                for e in index.recommendations(0, "technology")}
        theirs = {e.node: e.score
                  for e in fresh.recommendations(0, "technology")}
        assert ours.keys() == theirs.keys()
        for node, score in theirs.items():
            assert ours[node] == pytest.approx(score, abs=1e-12)


class TestSimilarityMatrixRepr:
    def test_repr(self, web_sim):
        assert "SimilarityMatrix" in repr(web_sim)


class TestLandmarkIndexRepr:
    def test_repr(self, web_sim):
        from repro import ScoreParams
        from repro.config import LandmarkParams
        from repro.graph.builders import path_graph
        from repro.landmarks import LandmarkIndex

        index = LandmarkIndex.build(
            path_graph(4, topics=["technology"]), [1], ["technology"],
            web_sim, params=ScoreParams(beta=0.2),
            landmark_params=LandmarkParams(num_landmarks=1, top_n=5))
        assert "landmarks=1" in repr(index)
