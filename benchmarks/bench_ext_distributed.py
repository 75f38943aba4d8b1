"""Extension bench — network cost of distributed recommendation
(paper §6 future work: partition the graph and place landmarks so that
scores are evaluated "locally", minimising network transfer).

Compares the three partitioners at 4 partitions on identical queries:
edge-cut quality, propagation messages, and landmark-list transfer.
Each query explores with the Pregel-style walker; its messages come from
the walker's stats, and its shipped entries are the list lengths of the
reached landmarks homed off the query's partition. Exploration scores
are partition-invariant (asserted), so the only thing at stake is
traffic.
"""

from conftest import write_result

from repro.config import LandmarkParams, ScoreParams
from repro.datasets import generate_twitter_graph
from repro.distributed import (
    distributed_single_source_scores,
    edge_cut_fraction,
    greedy_partition,
    hash_partition,
    topic_partition,
)
from repro.landmarks import LandmarkIndex, select_landmarks

TOPIC = "technology"
NUM_PARTS = 4
PARAMS = ScoreParams(beta=0.0005, alpha=0.85)


def test_ext_distributed_transfer_costs(benchmark, web_sim):
    graph = generate_twitter_graph(2000, seed=321)
    landmarks = select_landmarks(graph, "In-Deg", 30, rng=5)
    index = LandmarkIndex.build(
        graph, landmarks, [TOPIC], web_sim, params=PARAMS,
        landmark_params=LandmarkParams(num_landmarks=30, top_n=100))
    partitioners = {
        "hash": hash_partition(graph, NUM_PARTS),
        "greedy": greedy_partition(graph, NUM_PARTS, seed=5),
        "topic": topic_partition(graph, NUM_PARTS),
    }
    queries = [n for n in graph.nodes()
               if graph.out_degree(n) >= 3
               and n not in set(landmarks)][:15]

    def run():
        rows = {}
        reference = None
        depth = index.landmark_params.query_depth
        for name, assignment in partitioners.items():
            messages = 0
            entries = 0
            answers = []
            for query in queries:
                state, stats = distributed_single_source_scores(
                    graph, assignment, query, [TOPIC], web_sim,
                    params=PARAMS, max_depth=depth,
                    absorbing=frozenset(landmarks))
                messages += stats.remote_values
                entries += sum(
                    len(index.recommendations(landmark, TOPIC))
                    for landmark in landmarks
                    if state.topo_alphabeta.get(landmark, 0.0) > 0.0
                    and assignment[landmark] != assignment[query])
                answers.append(state.scores[TOPIC])
            if reference is None:
                reference = answers
            else:
                assert answers == reference  # partition-invariant
            rows[name] = (edge_cut_fraction(graph, assignment),
                          messages / len(queries),
                          entries / len(queries))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Extension — distributed query cost by partitioner "
             f"({NUM_PARTS} partitions, {len(queries)} queries)",
             f"  {'partitioner':12s} {'edge cut':>9s} "
             f"{'msgs/query':>11s} {'entries/query':>14s}"]
    for name, (cut, messages, entries) in rows.items():
        lines.append(f"  {name:12s} {cut:9.3f} {messages:11.1f} "
                     f"{entries:14.1f}")
    write_result("ext_distributed_transfer", "\n".join(lines) + "\n")

    # connectivity-aware partitioning must beat the hash baseline on
    # propagation traffic, mirroring its edge-cut advantage.
    assert rows["greedy"][0] < rows["hash"][0]
    assert rows["greedy"][1] < rows["hash"][1]
    assert rows["topic"][1] < rows["hash"][1]
