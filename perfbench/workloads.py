"""The benchmark's three workloads: inputs, set-up, traffic and checks.

Every input is generated from the run's seed before anything is timed.
All traffic goes through the public serving and ingest APIs
(``ShardedPlatform.serve``, ``IngestPipeline.submit``/``compact``) from
one process and one thread. Why each workload exists is in README.md.

The machines this runs on drift in speed over seconds, so each
workload spreads every kind of operation it times across the whole run
rather than timing one kind in a single block.
"""

from __future__ import annotations

import math
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.api import IngestEvent, RecommendationRequest
from repro.datasets import generate_twitter_graph
from repro.datasets.streaming import generate_twitter_snapshot_stream
from repro.datasets.twitter import TOPIC_POPULARITY_ORDER, TwitterConfig
from repro.distributed.sharded import ShardChannel, ShardedPlatform
from repro.dynamics import GraphStream, simulate_churn
from repro.graph import io as graph_io
from repro.ingest import CompactionPolicy, IngestPipeline
from repro.landmarks import ApproximateRecommender, select_landmarks
from repro.landmarks.index import LandmarkIndex
from repro.semantics import SimilarityMatrix, web_taxonomy

SIMILARITY = SimilarityMatrix.from_taxonomy(web_taxonomy())

# Serving tier shared by every workload: 4 range shards x 2 replicas
# behind a seeded channel with jitter and ~1% loss, so retries, hedges
# and failover run at seeded, repeatable counts. The simulated deadline
# is wide enough that no request degrades on a healthy tier.
SHARDS = 4
REPLICAS = 2
CHANNEL_LATENCY_MS = 1.0
CHANNEL_JITTER_MS = 1.0
CHANNEL_LOSS = 0.01
DEADLINE_MS = 200.0
TOP_N = 10

#: The graphs are fixed datasets; the run seed drives the traffic on
#: them (users, topics, churn, arrival times, channel losses). Graphs
#: drawn per seed differ enough in cost to swamp any change under test.
GRAPH_SEED = 7


def topic_weights(topics) -> List[float]:
    """Read weights per topic from the generator's own topic law: Zipf
    with exponent ``TwitterConfig.topic_skew`` over popularity rank, so
    reads ask about each topic as often as the graph labels edges with
    it."""
    skew = TwitterConfig().topic_skew
    return [1.0 / (TOPIC_POPULARITY_ORDER.index(topic) + 1) ** skew
            for topic in topics]


# query: a streamed snapshot served from mmap, Zipf-skewed users.
QUERY_NODES = 10_000
QUERY_LANDMARKS = 16
QUERY_TOPICS = TOPIC_POPULARITY_ORDER[:3]
#: Assumed, not derived: the generator gives every account about the
#: same number of follows, so it has no activity law to draw users
#: from. Users are Zipf(0.9) over active accounts ranked by following
#: count (the usual activity proxy), so a fixed set of accounts asks
#: most often and a result or exploration cache would see repeats.
QUERY_ZIPF = 0.9
QUERY_REQUESTS = 50_000
#: A light write trickle, spread evenly over the read loop, goes to the
#: overlay. Its count is fixed so compaction work does not grow with the
#: machine's read speed.
QUERY_WRITES = 1_200

# ingest / mixed: a smaller in-RAM graph with fewer landmarks.
INGEST_NODES = 3_000
INGEST_LANDMARKS = 8
INGEST_TOPICS = TOPIC_POPULARITY_ORDER[:2]
#: One compaction per 64 applied events: >1.5% of submits compact, so
#: ingest p99 lands on compactions.
COMPACT_EVERY = 64
INGEST_EVENTS = 8_000
RETOPIC_FRACTION = 0.1
#: Reads served on each freshly flipped epoch, and the pool they come
#: from (the first CHECK_SAMPLE are kept for the answer check).
READS_PER_FLIP = 40
INGEST_READS = 6_000
#: Post-flip responses compared with an oracle over a rebuilt index.
CHECK_SAMPLE = 200

# mixed: open-loop Poisson arrivals against the ingest set-up. Reads
# keep the server about a third busy between compactions: at half busy
# the queueing wait grows so steeply with the machine's speed drift
# that run-to-run medians spread past any useful bound. Writes trigger
# four compactions per 10 s.
MIXED_READ_RATE = 100.0
MIXED_WRITE_RATE = 25.6
#: A backlog still draining this long after the schedule ends means
#: the fixed rates overload the machine: the run is invalid.
MIXED_DRAIN_LIMIT_S = 2.0

# Host-speed calibration. Shared virtual machines drift in speed by up
# to 1.5x over seconds to minutes, which moves every timing alike. A
# fixed kernel of dict and numpy work is timed every CALIBRATION_EVERY_S
# between operations; its local median around each operation, against
# the reference time below, rescales that operation's time to a
# reference-speed machine, so the drift cancels and a change in the
# program does not.
CALIBRATION_EVERY_S = 0.02
CALIBRATION_REFERENCE_S = 0.0002
_KERNEL_VALUES = np.random.default_rng(0).random(20_000)
_KERNEL_INDEX = np.sort(np.random.default_rng(1).integers(0, 20_000, 5_000))


def _kernel() -> float:
    table = {key: 2 * key for key in range(1_500)}
    total = float(sum(table.values()))
    total += float(_KERNEL_VALUES[_KERNEL_INDEX].sum())
    return total + float(np.add.reduceat(_KERNEL_VALUES,
                                         _KERNEL_INDEX[:100]).sum())


def calibration_kernel() -> float:
    """Seconds the fixed calibration kernel took on the second of two
    back-to-back runs: the first warms the caches the program left cold,
    so the figure follows the host's speed, not the program's memory
    use."""
    _kernel()
    begin = time.perf_counter()
    _kernel()
    return time.perf_counter() - begin


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (``ceil(q*n)-1``, clamped)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = min(max(math.ceil(q * len(ordered)) - 1, 0), len(ordered) - 1)
    return ordered[rank]


def peak_rss_mb() -> float:
    """VmHWM of this process in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not available")


def reset_peak_rss() -> None:
    """Reset VmHWM so input generation does not count toward the peak."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def page_faults() -> int:
    """Minor plus major page faults of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_minflt + usage.ru_majflt


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one measured phase produced."""

    read_latencies: List[float] = field(default_factory=list)
    #: Per read, in ``read_latencies`` order: (midpoint, service time).
    read_ops: List[Tuple[float, float]] = field(default_factory=list)
    #: Per submit and drain: (midpoint, duration, is a submit).
    write_ops: List[Tuple[float, float, bool]] = field(default_factory=list)
    #: Per applied event: (submission or due time, flip time).
    freshness: List[Tuple[float, float]] = field(default_factory=list)
    applied: int = 0
    #: Sum of per-operation service time: the tracing-overhead base.
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    notes: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    valid: bool = True
    #: (time, kernel seconds) samples, in time order.
    calibration: List[Tuple[float, float]] = field(default_factory=list)
    next_calibration: float = 0.0


def calibrate(outcome: Outcome, force: bool = False) -> None:
    """Time the calibration kernel when its interval has passed."""
    now = time.perf_counter()
    if force or now >= outcome.next_calibration:
        outcome.calibration.append((now, calibration_kernel()))
        outcome.next_calibration = now + CALIBRATION_EVERY_S


def _serve(platform, user: int, topic: str, outcome: Outcome):
    """One read; a raised error or degraded answer counts as failed."""
    outcome.attempted += 1
    try:
        response = platform.serve(
            RecommendationRequest(user=user, topic=topic, top_n=TOP_N))
    except Exception as error:  # the run reports it and keeps going
        outcome.failed += 1
        outcome.notes.append(f"read {user}/{topic}: {error!r}")
        return None
    if response.degraded:
        outcome.failed += 1
    return response


def _write(pipeline, event: IngestEvent, outcome: Outcome,
           pending: List[float], submitted: Optional[float] = None):
    """One timed submit. Applied events wait in *pending* (as their
    submission time, or *submitted* when given) until a flip."""
    outcome.attempted += 1
    begin = time.perf_counter()
    try:
        response = pipeline.submit(event)
    except Exception as error:  # the run reports it and keeps going
        response = None
        outcome.failed += 1
        outcome.notes.append(f"submit {event}: {error!r}")
    end = time.perf_counter()
    outcome.write_ops.append(((begin + end) / 2, end - begin, True))
    outcome.busy += end - begin
    calibrate(outcome)
    if response is not None:
        if response.applied:
            pending.append(begin if submitted is None else submitted)
        if response.compacted:
            outcome.freshness.extend((start, end) for start in pending)
            pending.clear()
    return response


def _drain(pipeline, pending: List[float], outcome: Outcome) -> None:
    """Fold what is left into a flipped epoch."""
    if pipeline.pending_events:
        for _ in range(5):  # a long call needs samples on both sides
            calibrate(outcome, force=True)
        start = time.perf_counter()
        pipeline.compact(trigger="drain")
        elapsed = time.perf_counter() - start
        outcome.busy += elapsed
        outcome.write_ops.append((start + elapsed / 2, elapsed, False))
        for _ in range(5):
            calibrate(outcome, force=True)
    flipped = time.perf_counter()
    outcome.freshness.extend((start, flipped) for start in pending)
    pending.clear()


def _read_loop(platform, reads: Iterator[Tuple[int, str]], outcome: Outcome,
               deadline: float = math.inf,
               limit: Optional[int] = None) -> List[tuple]:
    """Closed-loop reads by one client, drawn from *reads*; returns the
    answers as ``(user, topic, response)``."""
    answers: List[tuple] = []
    while len(answers) != limit and time.perf_counter() < deadline:
        request = next(reads, None)
        if request is None:
            break
        user, topic = request
        begin = time.perf_counter()
        response = _serve(platform, user, topic, outcome)
        elapsed = time.perf_counter() - begin
        outcome.read_latencies.append(elapsed)
        outcome.read_ops.append((begin + elapsed / 2, elapsed))
        outcome.busy += elapsed
        answers.append((user, topic, response))
        calibrate(outcome)
    return answers


# ----------------------------------------------------------------------
# Set-up and checks
# ----------------------------------------------------------------------

def build_tier(snapshot, topics, landmark_count: int, seed: int,
               first: Tuple[int, str]) -> ShardedPlatform:
    """Landmarks, index, sharded tier and one warm pass, up to the
    first served request."""
    landmarks = select_landmarks(snapshot, "In-Deg", landmark_count, rng=seed)
    index = LandmarkIndex.build(snapshot, landmarks, topics, SIMILARITY,
                                authority=snapshot.authority())
    channel = ShardChannel(latency_ms=CHANNEL_LATENCY_MS,
                           jitter_ms=CHANNEL_JITTER_MS,
                           failure_rate=CHANNEL_LOSS, seed=seed)
    platform = ShardedPlatform.build(snapshot, SIMILARITY, index, SHARDS,
                                     replicas=REPLICAS, channel=channel,
                                     deadline_ms=DEADLINE_MS)
    for replica_set in platform.replica_sets:
        for worker in replica_set.replicas:
            worker.warm()
    platform.serve(RecommendationRequest(user=first[0], topic=first[1],
                                         top_n=TOP_N))
    return platform


def _ingest_events(graph, count: int, seed: int):
    """Churn as ``(EdgeEvent list for replay, IngestEvent list)``."""
    edge_events = list(simulate_churn(graph, count, seed=seed,
                                      retopic_fraction=RETOPIC_FRACTION))
    return edge_events, [
        IngestEvent(kind=event.kind.value, source=event.source,
                    target=event.target, topics=tuple(event.topics or ()),
                    time=event.time)
        for event in edge_events]


def _count_mismatches(snapshot, index, answers, outcome: Outcome) -> None:
    """Compare answers bitwise with an ``ApproximateRecommender``."""
    oracle = ApproximateRecommender(snapshot, SIMILARITY, index)
    expected: Dict[Tuple[int, str], tuple] = {}
    for user, topic, response in answers:
        if response is None:
            continue
        key = (user, topic)
        if key not in expected:
            expected[key] = oracle.recommend(
                user, topic, top_n=TOP_N).recommendations
        if response.recommendations != expected[key]:
            outcome.mismatches += 1


def _check_replay(reference, edge_events, base, outcome: Outcome) -> None:
    """The compacted base must equal a from-scratch replay, bitwise."""
    GraphStream(reference).apply_all(iter(edge_events))
    rebuilt = reference.snapshot()
    same = (base.epoch == rebuilt.epoch
            and tuple(base.node_ids) == tuple(rebuilt.node_ids)
            and base.labels == rebuilt.labels
            and all(np.array_equal(getattr(base, name),
                                   getattr(rebuilt, name))
                    for name in ("out_indptr", "out_indices",
                                 "out_label_ids", "in_indptr",
                                 "in_indices", "in_label_ids",
                                 "topic_ids")))
    if not same:
        outcome.mismatches += 1
        outcome.notes.append("compacted base differs from replay")


def _close_measurement(outcome: Outcome, channel, faults_before: int
                       ) -> None:
    """Read what must not include the (untimed) answer checks."""
    outcome.extra["graph.page_faults"] = page_faults() - faults_before
    outcome.extra["fetch.hedges_sent"] = channel.hedges_sent
    outcome.extra["fetch.hedge_win_ratio"] = (
        channel.hedges_won / channel.hedges_sent
        if channel.hedges_sent else 0.0)
    outcome.extra["peak_rss_mb"] = peak_rss_mb()


def _pipeline_counts(pipeline, outcome: Outcome) -> None:
    outcome.applied = pipeline.events_total
    outcome.extra["ingest.events_applied"] = pipeline.events_total
    outcome.extra["ingest.events_skipped"] = pipeline.events_skipped
    outcome.extra["ingest.compactions"] = pipeline.compactions_total
    outcome.extra["maint.sources_propagated"] = (
        pipeline.maintainer.stats.sources_propagated)


def _deadline(seconds: Optional[float]) -> float:
    return (time.perf_counter() + seconds if seconds is not None
            else math.inf)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

class Workload:
    """Inputs from a seed, repeatable set-ups, one measured phase.

    ``setups`` is how many timed set-ups a run makes, after one untimed
    one that lets lazy imports and first-use caches settle; half run
    before the measured phase and half after it, and ``setup_s`` is
    their median.

    ``run`` measures until *seconds* pass or, when *seconds* is
    ``None``, until the fixed traced window of ``window(seconds)``
    operations ran, so that work counts repeat. With *checks* ``None``
    the answer checks are skipped; otherwise they run untimed inside the
    ``checks()`` context.
    """

    name = ""
    setups = 4
    #: Whether freshness is all work (closed loop: the rest of the
    #: batch's submits and the compaction) rather than mostly waiting
    #: on a schedule; only work timings follow the host's speed.
    freshness_is_work = False

    def setup(self):
        raise NotImplementedError

    def window(self, seconds: float) -> int:
        """Operations in one traced window."""
        raise NotImplementedError

    def run(self, state, seconds: Optional[float], limit: Optional[int],
            checks) -> Outcome:
        raise NotImplementedError


class QueryWorkload(Workload):
    """Closed-loop reads by one client on a ~10k-node mmap snapshot.

    A trickle of churn events (about 1% of the server's time) goes to
    the overlay and waits there, so every read is served from the
    mmap-backed epoch; the run ends with the one compaction that folds
    the trickle in.
    """

    name = "query"

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        self.seed = seed
        self.path = f"{workdir}/query-snapshot"
        generate_twitter_snapshot_stream(self.path, QUERY_NODES,
                                         seed=GRAPH_SEED)
        snapshot = graph_io.open_snapshot(self.path, store="mmap")
        rng = random.Random(seed)
        active = sorted((node for node in snapshot.nodes()
                         if snapshot.out_degree(node) >= 1),
                        key=lambda node: (-snapshot.out_degree(node), node))
        weights = [1.0 / (rank + 1) ** QUERY_ZIPF
                   for rank in range(len(active))]
        users = rng.choices(active, weights=weights, k=QUERY_REQUESTS)
        topics = rng.choices(QUERY_TOPICS, weights=topic_weights(
            QUERY_TOPICS), k=QUERY_REQUESTS)
        self.requests = list(zip(users, topics))
        _, self.events = _ingest_events(snapshot, QUERY_WRITES, seed + 1)

    def window(self, seconds: float) -> int:
        return int(100 * seconds)

    def setup(self):
        snapshot = graph_io.open_snapshot(self.path, store="mmap")
        return build_tier(snapshot, QUERY_TOPICS, QUERY_LANDMARKS,
                          self.seed, self.requests[0])

    def run(self, platform, seconds, limit, checks) -> Outcome:
        outcome = Outcome()
        faults = page_faults()
        requests = iter(self.requests)
        events = iter(self.events)
        pipeline = IngestPipeline(
            platform, SIMILARITY, QUERY_TOPICS,
            policy=CompactionPolicy(max_events=len(self.events) + 1))
        pending: List[float] = []
        start = time.perf_counter()
        deadline = _deadline(seconds)
        answers: List[tuple] = []
        written = 0
        while len(answers) != limit and time.perf_counter() < deadline:
            batch = _read_loop(platform, requests, outcome, deadline, 1)
            if not batch:
                break
            answers.extend(batch)
            # Writes are spread evenly over the run: over its time, or
            # over its reads when the traced window fixes their count.
            due = (QUERY_WRITES * len(answers) // limit if limit
                   else int(QUERY_WRITES * (time.perf_counter() - start)
                            / seconds))
            while written < min(due, QUERY_WRITES):
                _write(pipeline, next(events), outcome, pending)
                written += 1
        for event in events:
            _write(pipeline, event, outcome, pending)
        # The drain refreshes the served index in place, so the check
        # rebuilds it afterwards over the snapshot every read was
        # served from.
        served, landmarks = platform.snapshot, platform.index.landmarks
        _drain(pipeline, pending, outcome)
        _pipeline_counts(pipeline, outcome)
        _close_measurement(outcome, platform.channel, faults)
        if checks is not None:
            with checks():
                index = LandmarkIndex.build(
                    served, landmarks, QUERY_TOPICS, SIMILARITY,
                    authority=served.authority())
                _count_mismatches(served, index, answers, outcome)
        return outcome


class IngestWorkload(Workload):
    """Closed-loop churn by one writer on a ~3k-node in-RAM graph, with
    a few reads on each freshly flipped epoch, drained at the end."""

    name = "ingest"
    setups = 8
    freshness_is_work = True

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        self.seed = seed
        graph = generate_twitter_graph(INGEST_NODES, seed=GRAPH_SEED)
        # Each set-up snapshots its own copy, so none reuses a cached
        # snapshot; the last copy is the replay reference.
        self._copies = [graph.copy() for _ in range(self.setups + 2)]
        self.edge_events, self.events = _ingest_events(
            graph, INGEST_EVENTS, seed + 1)
        rng = random.Random(seed)
        self.active = sorted(node for node in graph.nodes()
                             if graph.out_degree(node) >= 1)
        self.reads = list(zip(
            rng.choices(self.active, k=INGEST_READS),
            rng.choices(INGEST_TOPICS, weights=topic_weights(INGEST_TOPICS),
                        k=INGEST_READS)))

    def window(self, seconds: float) -> int:
        return int(COMPACT_EVERY * seconds / 2)

    def setup(self):
        snapshot = self._copies.pop(0).snapshot()
        platform = build_tier(snapshot, INGEST_TOPICS, INGEST_LANDMARKS,
                              self.seed, self.reads[0])
        return IngestPipeline(platform, SIMILARITY, INGEST_TOPICS,
                              policy=CompactionPolicy(
                                  max_events=COMPACT_EVERY))

    def _check(self, pipeline, consumed: int, outcome: Outcome) -> None:
        """Replay the submitted events; compare post-flip answers with
        an oracle over a rebuilt index."""
        platform = pipeline.platform
        base, index = platform.snapshot, platform.index
        _check_replay(self._copies[-1], self.edge_events[:consumed], base,
                      outcome)
        answers = [(user, topic, _serve(platform, user, topic, outcome))
                   for user, topic in self.reads[:CHECK_SAMPLE]]
        rebuilt = LandmarkIndex.build(
            base, sorted(index.landmarks), INGEST_TOPICS, SIMILARITY,
            authority=base.authority())
        _count_mismatches(base, rebuilt, answers, outcome)

    def run(self, pipeline, seconds, limit, checks) -> Outcome:
        outcome = Outcome()
        faults = page_faults()
        reads = iter(self.reads[CHECK_SAMPLE:])
        deadline = _deadline(seconds)
        pending: List[float] = []
        consumed = 0
        for event in self.events:
            if consumed == limit or time.perf_counter() >= deadline:
                break
            response = _write(pipeline, event, outcome, pending)
            consumed += 1
            if response is not None and response.compacted:
                _read_loop(pipeline.platform, reads, outcome,
                           limit=READS_PER_FLIP)
        _drain(pipeline, pending, outcome)
        _pipeline_counts(pipeline, outcome)
        _close_measurement(outcome, pipeline.platform.channel, faults)
        if checks is not None:
            with checks():
                self._check(pipeline, consumed, outcome)
        return outcome


class MixedWorkload(IngestWorkload):
    """Open-loop Poisson reads and writes against the ingest set-up,
    reads timed from their due time."""

    name = "mixed"
    freshness_is_work = False

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        super().__init__(seed, seconds, workdir)
        # Poisson arrivals conditioned on their count: sorted uniform
        # times, so every run of a given length holds the same number
        # of reads, writes and compactions.
        rng = random.Random(seed + 2)
        reads = round(MIXED_READ_RATE * seconds)
        writes = min(round(MIXED_WRITE_RATE * seconds), len(self.events))
        weights = topic_weights(INGEST_TOPICS)
        schedule = [(rng.uniform(0.0, seconds), 0,
                     (rng.choice(self.active),
                      rng.choices(INGEST_TOPICS, weights=weights)[0]))
                    for _ in range(reads)]
        write_times = sorted(rng.uniform(0.0, seconds)
                             for _ in range(writes))
        schedule.extend((due, 1, number)
                        for number, due in enumerate(write_times))
        schedule.sort(key=lambda op: (op[0], op[1]))
        self.schedule = schedule

    def window(self, seconds: float) -> int:
        return sum(1 for due, _, _ in self.schedule if due < seconds / 2)

    def run(self, pipeline, seconds, limit, checks) -> Outcome:
        outcome = Outcome()
        faults = page_faults()
        platform = pipeline.platform
        schedule = self.schedule[:limit]
        pending: List[float] = []
        waits: List[float] = []
        starts: List[float] = []
        consumed = 0
        origin = time.perf_counter() + 0.05
        end = origin
        for offset, kind, item in schedule:
            due = origin + offset
            if due - time.perf_counter() > 0.002:
                calibrate(outcome)  # while the server would idle anyway
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            begin = time.perf_counter()
            starts.append(begin)
            if kind == 0:
                _serve(platform, item[0], item[1], outcome)
                end = time.perf_counter()
                outcome.read_latencies.append(end - due)
                outcome.read_ops.append(((begin + end) / 2, end - begin))
                outcome.busy += end - begin
                waits.append(begin - due)
            else:
                _write(pipeline, self.events[item], outcome, pending, due)
                end = time.perf_counter()
                consumed = item + 1
        schedule_end = origin + schedule[-1][0]
        drained_after = end - schedule_end
        outcome.valid = drained_after <= MIXED_DRAIN_LIMIT_S
        if not outcome.valid:
            outcome.notes.append(
                f"backlog drained {drained_after:.2f}s after the schedule "
                f"ended: the fixed rates overload this machine")
        _drain(pipeline, pending, outcome)
        _pipeline_counts(pipeline, outcome)
        outcome.extra["loadgen.lag_max_ms"] = 1e3 * max(
            begin - (origin + offset)
            for begin, (offset, _, _) in zip(starts, schedule))
        outcome.extra["loadgen.backlog_end"] = sum(
            1 for begin in starts if begin > schedule_end)
        outcome.extra["mixed.read_wait_p99_ms"] = percentile(waits, 0.99) * 1e3
        _close_measurement(outcome, platform.channel, faults)
        if checks is not None:
            with checks():
                self._check(pipeline, consumed, outcome)
        return outcome


WORKLOADS = {workload.name: workload
             for workload in (QueryWorkload, IngestWorkload, MixedWorkload)}
