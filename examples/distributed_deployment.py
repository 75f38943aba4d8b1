#!/usr/bin/env python
"""Simulating a distributed deployment of the recommender.

The paper's future-work sketch (§6): split the social graph across
servers, place landmarks, and answer queries while minimising network
transfer. This example partitions a synthetic network three ways, runs
the same depth-k explorations on each deployment, and reports what each
partitioner pays: propagation messages that cross servers, plus the
inverted-list entries of every reached landmark homed on another
server than the query. The exploration scores never change with the
partitioning.

Run:
    python examples/distributed_deployment.py
"""

from repro import ScoreParams, SimilarityMatrix, web_taxonomy
from repro.config import LandmarkParams
from repro.datasets import generate_twitter_graph
from repro.distributed import (
    distributed_single_source_scores,
    greedy_partition,
    hash_partition,
    partition_metrics,
    topic_partition,
)
from repro.landmarks import LandmarkIndex, select_landmarks

TOPIC = "technology"
NUM_PARTS = 4
PARAMS = ScoreParams(beta=0.0005, alpha=0.85)


def query_cost(graph, assignment, similarity, index, user):
    """One query's exploration scores, remote messages, shipped entries.

    *user* is not a landmark; the reached landmarks are those the
    exploration gave a positive ``topo_αβ``.
    """
    state, stats = distributed_single_source_scores(
        graph, assignment, user, [TOPIC], similarity, params=PARAMS,
        max_depth=index.landmark_params.query_depth,
        absorbing=frozenset(index.landmarks))
    shipped = sum(
        len(index.recommendations(landmark, TOPIC))
        for landmark in index.landmarks
        if state.topo_alphabeta.get(landmark, 0.0) > 0.0
        and assignment[landmark] != assignment[user])
    return state.scores[TOPIC], stats.remote_values, shipped


def main():
    graph = generate_twitter_graph(1200, seed=13)
    similarity = SimilarityMatrix.from_taxonomy(web_taxonomy())
    landmarks = select_landmarks(graph, "In-Deg", 20, rng=13)
    index = LandmarkIndex.build(
        graph, landmarks, [TOPIC], similarity, params=PARAMS,
        landmark_params=LandmarkParams(num_landmarks=20, top_n=100))

    partitioners = {
        "hash": hash_partition(graph, NUM_PARTS),
        "greedy": greedy_partition(graph, NUM_PARTS, seed=13),
        "topic": topic_partition(graph, NUM_PARTS),
    }
    queries = [n for n in graph.nodes()
               if graph.out_degree(n) >= 3 and n not in set(landmarks)][:12]

    print(f"{NUM_PARTS}-server deployment, {len(queries)} identical queries\n")
    print(f"{'partitioner':12s} {'edge cut':>9s} {'balance':>8s} "
          f"{'msgs/query':>11s} {'entries/query':>14s}")
    reference = None
    for name, assignment in partitioners.items():
        metrics = partition_metrics(graph, assignment)
        messages = entries = 0
        scores = []
        for query in queries:
            explored, sent, shipped = query_cost(graph, assignment,
                                                 similarity, index, query)
            messages += sent
            entries += shipped
            scores.append(explored)
        if reference is None:
            reference = scores
        else:
            assert scores == reference, "scores must be partition-invariant"
        print(f"{name:12s} {metrics.edge_cut:9.3f} {metrics.balance:8.2f} "
              f"{messages / len(queries):11.1f} "
              f"{entries / len(queries):14.1f}")

    print("\nexploration scores were identical under every partitioning —")
    print("only the network traffic differs, which is the quantity the")
    print("paper says a distributed design must minimise.")


if __name__ == "__main__":
    main()
