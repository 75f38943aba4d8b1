"""Degraded answers checked bitwise against a test-side oracle.

With a whole shard down, the sharded tier answers from what the healthy
shards hold. The oracle below restates that contract with the reference
pieces, independently of the serving code:

- explore with :func:`distributed_single_source_scores`, the down
  shard's nodes joining the landmark-absorbing set;
- compose Proposition 4 with the reference entry loop, in sorted
  landmark order, over the landmarks not homed on the down shard;
- drop candidates the down shard owns, the user and the user's
  followees, and rank by ``(-score, node)``.
"""

import pytest

from repro import ScoreParams
from repro.config import LandmarkParams
from repro.datasets import generate_twitter_graph
from repro.distributed import (distributed_single_source_scores,
                               range_partition)
from repro.distributed.sharded import ShardedPlatform
from repro.landmarks import LandmarkIndex, select_landmarks

PARAMS = ScoreParams(beta=0.004)
TOPIC = "technology"
TOP_N = 10


@pytest.fixture(scope="module")
def world(web_sim):
    graph = generate_twitter_graph(250, seed=4)
    landmarks = select_landmarks(graph, "In-Deg", 15, rng=2)
    index = LandmarkIndex.build(
        graph, landmarks, [TOPIC], web_sim, params=PARAMS,
        landmark_params=LandmarkParams(num_landmarks=15, top_n=100))
    return graph.snapshot(), index


def degraded_oracle(snapshot, index, similarity, assignment, user, down):
    """The ranking a tier with the shards in *down* out must return."""
    depth = index.landmark_params.query_depth
    lost = frozenset(node for node, shard in assignment.items()
                     if shard in down)
    state, _ = distributed_single_source_scores(
        snapshot, assignment, user, [TOPIC], similarity,
        authority=snapshot.authority(), params=PARAMS, max_depth=depth,
        absorbing=frozenset(index.landmarks) | lost)
    combined = dict(state.scores.get(TOPIC, {}))
    for landmark in sorted(index.landmarks):
        if landmark == user and depth > 0:
            continue
        topo_ab = state.topo_alphabeta.get(landmark, 0.0)
        if topo_ab <= 0.0 or assignment[landmark] in down:
            continue
        sigma_to_landmark = state.score(landmark, TOPIC)
        for entry in index.recommendations(landmark, TOPIC):
            if entry.node == user:
                continue
            contribution = (sigma_to_landmark * entry.topo
                            + topo_ab * entry.score)
            if contribution:
                combined[entry.node] = (
                    combined.get(entry.node, 0.0) + contribution)
    excluded = {user} | set(snapshot.out_neighbors(user))
    ranked = [(node, value) for node, value in combined.items()
              if value > 0.0 and node not in excluded
              and assignment[node] not in down]
    ranked.sort(key=lambda kv: (-kv[1], kv[0]))
    return ranked[:TOP_N]


@pytest.mark.parametrize("num_shards", [3, 7])
def test_whole_shard_down_matches_oracle(world, web_sim, num_shards):
    snapshot, index = world
    assignment = range_partition(snapshot, num_shards)
    platform = ShardedPlatform.build(snapshot, web_sim, index, num_shards,
                                     params=PARAMS)
    users = {}
    for node in snapshot.node_ids:
        if snapshot.out_degree(node) >= 3 and node not in index:
            users.setdefault(assignment[node], []).append(node)
    changed = 0
    for down in sorted(users):
        platform.mark_down(down)
        for home, candidates in sorted(users.items()):
            if home == down:
                continue
            for user in candidates[:2]:
                got = platform.recommend(user, TOPIC, top_n=TOP_N)
                assert got.degraded is True
                expected = degraded_oracle(snapshot, index, web_sim,
                                           assignment, user, {down})
                assert got.pairs() == expected, (down, user)
                healthy = degraded_oracle(snapshot, index, web_sim,
                                          assignment, user, set())
                changed += expected != healthy
        platform.mark_up(down)
    assert changed, "no outage changed any answer: the oracle is idle"
