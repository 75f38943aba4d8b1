"""Extension bench — landmark freshness under churn (paper §6 future
work: "many following links have a short lifespan... dynamicity may
impact the scores stored by the landmarks").

Drives the production write path — :class:`~repro.ingest.IngestPipeline`
over a one-shard tier — with the same churn stream at several
compaction cadences. Every compaction refreshes every landmark, so the
cadence trades refresh cost (Algorithm-1 runs per event) against the
staleness the index carries between compactions (Kendall tau drift of
stored lists). The baseline never compacts in-stream.
"""

from conftest import write_result

from repro.api import IngestEvent
from repro.config import LandmarkParams, ScoreParams
from repro.datasets import generate_twitter_graph
from repro.distributed import ShardedPlatform
from repro.dynamics import GraphStream, measure_staleness, simulate_churn
from repro.ingest import CompactionPolicy, IngestPipeline
from repro.landmarks import LandmarkIndex, select_landmarks

TOPIC = "technology"
NUM_EVENTS = 400
NUM_LANDMARKS = 12
PARAMS = ScoreParams(beta=0.0005, alpha=0.85)
#: Compaction cadences, in applied events; ``None`` is the baseline.
CADENCES = (1, 16, 64, 256, None)


def test_ext_dynamics_maintenance_frontier(benchmark, web_sim):
    base = generate_twitter_graph(1500, seed=123)
    landmarks = select_landmarks(base, "In-Deg", NUM_LANDMARKS, rng=4)
    events = list(simulate_churn(base, NUM_EVENTS, seed=4))
    current = base.copy()
    GraphStream(current).apply_all(events)
    ingest_events = [
        IngestEvent(kind=event.kind.value, source=event.source,
                    target=event.target, topics=tuple(event.topics or ()),
                    time=event.time)
        for event in events]

    def run():
        rows = {}
        for cadence in CADENCES:
            index = LandmarkIndex.build(
                base, landmarks, [TOPIC], web_sim, params=PARAMS,
                landmark_params=LandmarkParams(
                    num_landmarks=NUM_LANDMARKS, top_n=100))
            platform = ShardedPlatform.build(base, web_sim, index, 1,
                                             params=PARAMS)
            max_events = cadence if cadence is not None else NUM_EVENTS + 1
            pipeline = IngestPipeline(
                platform, web_sim, [TOPIC],
                policy=CompactionPolicy(max_events=max_events))
            pipeline.submit_all(ingest_events)
            refreshes = pipeline.maintainer.stats.rebuilds_per_event
            sample = landmarks[:6]
            at_end = measure_staleness(current, pipeline.index, TOPIC,
                                       web_sim, sample=sample)
            pipeline.compact()
            after = measure_staleness(current, pipeline.index, TOPIC,
                                      web_sim, sample=sample)
            name = f"every-{cadence}" if cadence is not None else "never"
            rows[name] = (refreshes, at_end, after)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Extension — landmark freshness by compaction cadence "
             f"({NUM_EVENTS} events, {NUM_LANDMARKS} landmarks)",
             f"  {'cadence':10s} {'refreshes/event':>15s} "
             f"{'stale at end':>13s} {'after compaction':>17s}"]
    for name, (cost, at_end, after) in rows.items():
        lines.append(f"  {name:10s} {cost:15.3f} {at_end:13.4f} "
                     f"{after:17.4f}")
    write_result("ext_dynamics_maintenance", "\n".join(lines) + "\n")

    # Compacting after every applied event refreshes every landmark per
    # event and never lets the index drift; the baseline refreshes
    # nothing in-stream and carries the most drift.
    assert rows["every-1"][0] == NUM_LANDMARKS
    assert rows["every-1"][1] == 0.0
    assert rows["never"][0] == 0.0
    assert rows["never"][1] > 0.0
    costs = [cost for cost, _, _ in rows.values()]
    assert costs == sorted(costs, reverse=True)
    for name, (_, at_end, after) in rows.items():
        assert at_end <= rows["never"][1] + 1e-9, name
        # A compaction refreshes through the build's own list builder,
        # so the index is exactly fresh right after it.
        assert after == 0.0, name
