"""End-to-end: a landmark recommendation emits the documented span tree
and counters."""

import pytest

from repro.graph import LabeledSocialGraph
from repro.landmarks import (ApproximateRecommender, LandmarkIndex,
                             select_landmarks)
from repro.obs import runtime as rt


def names(tree):
    """Flatten a span-tree dict into depth-first span names."""
    out = [tree["name"]]
    for child in tree["children"]:
        out.extend(names(child))
    return out


def find(tree, name):
    if tree["name"] == name:
        return tree
    for child in tree["children"]:
        found = find(child, name)
        if found is not None:
            return found
    return None


@pytest.fixture()
def world(web_sim):
    graph = LabeledSocialGraph()
    for node in range(12):
        graph.add_node(node, topics=("technology",))
    # A ring plus spokes so everyone has somewhere to explore.
    for node in range(12):
        graph.add_edge(node, (node + 1) % 12, ("technology",))
        graph.add_edge(node, (node + 5) % 12, ("technology",))
    index = LandmarkIndex.build(
        graph, select_landmarks(graph, "In-Deg", 4, rng=3),
        ["technology"], web_sim)
    return graph, index


@pytest.fixture()
def recommender(world, web_sim):
    graph, index = world
    return ApproximateRecommender(graph, web_sim, index)


class TestWhoToFollowSpanTree:
    def test_exact_path_tree_and_counters(self, world, web_sim):
        """The dict query engine explores with the exact walker, so its
        power-iteration spans nest under the exploration."""
        graph, index = world
        recommender = ApproximateRecommender(graph, web_sim, index,
                                             query_engine="dict")
        rt.enable()
        recommender.recommend(0, "technology", top_n=3)
        trees = rt.span_trees()
        assert len(trees) == 1
        root = trees[0]
        assert root["name"] == "approx.recommend"
        assert [child["name"] for child in root["children"]] == [
            "approx.query", "approx.rank"]
        query = find(root, "approx.query")
        assert query["attributes"]["engine"] == "dict"
        explore = find(query, "approx.explore")
        assert "exact.single_source" in names(explore)
        assert "exact.iteration" in names(explore)

        snap = rt.snapshot()
        assert snap["counters"]["approx.queries_total"] == 1
        assert snap["counters"]["exact.calls_total"] == 1
        assert snap["counters"]["exact.iterations_total"] >= 1

    def test_approximate_path_tree_and_counters(self, recommender):
        rt.enable()
        recommender.recommend(0, "technology", top_n=3)
        trees = rt.span_trees()
        assert len(trees) == 1
        root = trees[0]
        assert root["name"] == "approx.recommend"

        # The documented tree, top to bottom.
        query = find(root, "approx.query")
        assert query is not None
        assert query["attributes"]["engine"] == "sparse"
        assert [child["name"] for child in query["children"]] == [
            "approx.explore", "approx.compose"]
        assert find(root, "approx.rank") is not None

        # Exploration is depth-limited and absorbed at landmarks. The
        # default (sparse) engine expands the whole frontier in batch
        # over the snapshot's CSR arrays, so no per-source
        # exact.single_source span appears beneath it.
        explore = find(query, "approx.explore")
        assert explore["attributes"]["depth"] == 2
        assert explore["attributes"]["frontier_size"] >= 1
        assert names(explore) == ["approx.explore"]
        assert query["attributes"]["landmarks_hit"] >= 1

        snap = rt.snapshot()
        assert snap["counters"]["approx.queries_total"] == 1
        assert snap["counters"]["approx.landmarks_encountered_total"] >= 1
        assert "exact.calls_total" not in snap["counters"]

    def test_repeated_requests_accumulate_stage_stats(self, recommender):
        rt.enable()
        for _ in range(3):
            recommender.recommend(1, "technology", top_n=2)
        stages = rt.snapshot()["stages"]
        assert stages["approx.recommend"]["calls"] == 3
        assert stages["approx.query"]["calls"] == 3
        assert stages["approx.rank"]["calls"] == 3
        assert rt.snapshot()["counters"]["approx.queries_total"] == 3

    def test_disabled_platform_emits_nothing(self, recommender):
        response = recommender.recommend(0, "technology", top_n=3)
        assert response.recommendations  # the endpoint itself still works
        snap = rt.snapshot()
        assert snap["stages"] == {}
        assert snap["counters"] == {}
