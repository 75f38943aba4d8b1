"""Extension bench — landmark maintenance under churn (paper §6 future
work: "many following links have a short lifespan... dynamicity may
impact the scores stored by the landmarks").

Compares maintenance policies on the same churn stream: rebuild cost
(Algorithm-1 runs per event) against residual staleness (Kendall tau
drift of stored lists). The expected frontier: NoOp is free but stale,
Eager is fresh but pays per event, Batch/TTL sit between, and the
incremental maintainer refreshes every landmark per event to stay exact.
"""

from conftest import write_result

from repro.config import LandmarkParams, ScoreParams
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
from repro.datasets import generate_twitter_graph
from repro.landmarks import LandmarkIndex, select_landmarks

TOPIC = "technology"
NUM_EVENTS = 400
NUM_LANDMARKS = 12
PARAMS = ScoreParams(beta=0.0005, alpha=0.85)

POLICIES = {
    "NoOp": lambda g, i, s: NoOpMaintainer(g, i, [TOPIC], s, PARAMS),
    "Eager": lambda g, i, s: EagerMaintainer(g, i, [TOPIC], s, PARAMS),
    "Batch-25%": lambda g, i, s: BatchMaintainer(
        g, i, [TOPIC], s, PARAMS, dirty_threshold=0.25),
    "TTL-100": lambda g, i, s: TTLMaintainer(
        g, i, [TOPIC], s, PARAMS, ttl_events=100),
    "Increment": lambda g, i, s: IncrementalMaintainer(
        g, i, [TOPIC], s, PARAMS),
}


def test_ext_dynamics_maintenance_frontier(benchmark, web_sim):
    base = generate_twitter_graph(1500, seed=123)
    landmarks = select_landmarks(base, "In-Deg", NUM_LANDMARKS, rng=4)
    events = list(simulate_churn(base, NUM_EVENTS, seed=4))

    def run():
        rows = {}
        for name, factory in POLICIES.items():
            graph = base.copy()
            index = LandmarkIndex.build(
                graph, landmarks, [TOPIC], web_sim, params=PARAMS,
                landmark_params=LandmarkParams(
                    num_landmarks=NUM_LANDMARKS, top_n=100))
            maintainer = factory(graph, index, web_sim)
            stream = GraphStream(graph)
            stream.subscribe(maintainer.on_event)
            stream.apply_all(events)
            if isinstance(maintainer, BatchMaintainer):
                maintainer.flush()
            staleness = measure_staleness(
                graph, index, TOPIC, web_sim, PARAMS,
                sample=landmarks[:6])
            rows[name] = (maintainer.stats.rebuilds_per_event, staleness)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Extension — landmark maintenance under churn "
             f"({NUM_EVENTS} events, {NUM_LANDMARKS} landmarks)",
             f"  {'policy':10s} {'rebuilds/event':>15s} {'staleness':>10s}"]
    for name, (cost, staleness) in rows.items():
        lines.append(f"  {name:10s} {cost:15.3f} {staleness:10.4f}")
    write_result("ext_dynamics_maintenance", "\n".join(lines) + "\n")

    assert rows["NoOp"][0] == 0.0
    # The incremental maintainer re-propagates every landmark at each
    # flush (once per applied event at the default flush_every=1) and
    # leaves the index exact.
    assert rows["Increment"][0] == NUM_LANDMARKS
    assert rows["Increment"][1] == 0.0
    # Eager pays the most rebuilds and ends freshest.
    assert rows["Eager"][0] >= rows["Batch-25%"][0]
    assert rows["Eager"][1] <= rows["NoOp"][1] + 1e-9
    # Every maintained policy beats doing nothing on staleness.
    for name in ("Eager", "Batch-25%", "TTL-100", "Increment"):
        assert rows[name][1] <= rows["NoOp"][1] + 1e-9
