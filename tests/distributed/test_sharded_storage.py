"""Sharded serving on top of the ArrayStore seam.

RAM-vs-mmap parity through the scatter-gather tier for both query
engines and several shard counts, and the no-copy contract of
``GraphSnapshot.out_slice`` that replica warm-up relies on.
"""

import numpy as np
import pytest

from repro.config import LandmarkParams, ScoreParams
from repro.datasets import generate_twitter_graph
from repro.distributed.sharded import ShardedPlatform
from repro.graph import open_snapshot, save_snapshot
from repro.landmarks import LandmarkIndex, select_landmarks

TOPIC = "technology"
PARAMS = ScoreParams(beta=0.01, alpha=0.85)


@pytest.fixture(scope="module")
def served(tmp_path_factory, web_sim):
    graph = generate_twitter_graph(350, seed=23)
    snapshot = graph.snapshot()
    landmarks = select_landmarks(snapshot, "In-Deg", 10, rng=4)
    index = LandmarkIndex.build(
        snapshot, landmarks, [TOPIC], web_sim, params=PARAMS,
        landmark_params=LandmarkParams(num_landmarks=10, top_n=50))
    queries = [n for n in snapshot.nodes()
               if snapshot.out_degree(n) >= 2
               and n not in set(landmarks)][:6]
    path = tmp_path_factory.mktemp("shards") / "snap"
    save_snapshot(snapshot, path)
    return snapshot, index, queries, path


class TestShardedParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_ram_and_mmap_answers_identical(self, served, web_sim,
                                            num_shards):
        _, index, queries, path = served
        answers = {}
        for store in ("ram", "mmap"):
            snapshot = open_snapshot(path, store=store)
            platform = ShardedPlatform.build(
                snapshot, web_sim, index, num_shards=num_shards,
                params=PARAMS)
            answers[store] = [platform.recommend(q, TOPIC, top_n=10)
                              for q in queries]
        assert answers["ram"] == answers["mmap"]

    def test_mmap_matches_rebuilt_snapshot(self, served, web_sim):
        snapshot, index, queries, path = served
        baseline = ShardedPlatform.build(
            snapshot, web_sim, index, num_shards=4, params=PARAMS)
        mapped = ShardedPlatform.build(
            open_snapshot(path, store="mmap"), web_sim, index,
            num_shards=4, params=PARAMS)
        for query in queries:
            assert baseline.recommend(query, TOPIC, top_n=10) \
                == mapped.recommend(query, TOPIC, top_n=10)


class TestOutSliceViews:
    def test_indices_are_views_not_copies(self, served):
        snapshot, _, _, _ = served
        _, indices, label_ids = snapshot.out_slice(10, 60)
        assert np.shares_memory(indices, snapshot.out_indices)
        assert np.shares_memory(label_ids, snapshot.out_label_ids)

    def test_rebased_indptr_is_correct(self, served):
        snapshot, _, _, _ = served
        lo, hi = 10, 60
        indptr, indices, _ = snapshot.out_slice(lo, hi)
        assert indptr[0] == 0
        assert len(indptr) == hi - lo + 1
        for offset in range(hi - lo):
            row = indices[indptr[offset]:indptr[offset + 1]]
            full = snapshot.out_indices[
                snapshot.out_indptr[lo + offset]:
                snapshot.out_indptr[lo + offset + 1]]
            np.testing.assert_array_equal(row, full)

    def test_mmap_slices_stay_file_backed(self, served):
        _, _, _, path = served
        snapshot = open_snapshot(path, store="mmap")
        _, indices, label_ids = snapshot.out_slice(0, snapshot.num_nodes)
        assert isinstance(indices.base, np.memmap) \
            or isinstance(indices, np.memmap)
        assert np.shares_memory(indices, snapshot.out_indices)
        assert np.shares_memory(label_ids, snapshot.out_label_ids)
