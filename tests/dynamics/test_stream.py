"""Tests for the graph event stream."""

from repro.dynamics import EdgeEvent, EventKind, GraphStream, simulate_churn
from repro.datasets import generate_twitter_graph
from repro.graph.builders import graph_from_edges


def _follow(source, target, topics=("technology",), time=0):
    return EdgeEvent(EventKind.FOLLOW, source, target, tuple(topics), time)


def _unfollow(source, target, time=0):
    return EdgeEvent(EventKind.UNFOLLOW, source, target, (), time)


class TestApply:
    def test_follow_adds_edge(self):
        graph = graph_from_edges([(0, 1)])
        stream = GraphStream(graph)
        assert stream.apply(_follow(1, 2))
        assert graph.has_edge(1, 2)
        assert graph.edge_topics(1, 2) == frozenset({"technology"})

    def test_unfollow_removes_edge(self):
        graph = graph_from_edges([(0, 1, ["food"])])
        stream = GraphStream(graph)
        assert stream.apply(_unfollow(0, 1))
        assert not graph.has_edge(0, 1)

    def test_unfollow_of_missing_edge_is_skipped(self):
        graph = graph_from_edges([(0, 1)])
        stream = GraphStream(graph)
        assert not stream.apply(_unfollow(1, 0))
        assert stream.skipped == 1
        assert stream.applied == 0


class TestApplyAll:
    def test_churn_keeps_graph_consistent(self):
        graph = generate_twitter_graph(150, seed=44)
        stream = GraphStream(graph)
        applied = stream.apply_all(simulate_churn(graph, 400, seed=44))
        assert applied > 300
        # follower counts must still be internally consistent
        for node in list(graph.nodes())[:50]:
            recount = {}
            for _, label in sorted(graph.in_neighbors(node).items()):
                for topic in label:
                    recount[topic] = recount.get(topic, 0) + 1
            assert recount == dict(graph.follower_topic_counts(node))

    def test_returns_applied_count(self):
        graph = graph_from_edges([(0, 1, ["food"])])
        stream = GraphStream(graph)
        events = [_follow(1, 2), _unfollow(0, 1), _unfollow(0, 1)]
        assert stream.apply_all(events) == 2
