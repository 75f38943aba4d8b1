"""Sharded serving tier over contiguous range partitions.

The paper's future-work paragraph says scaling ``Tr`` means splitting
the graph and keeping recommendation traffic local. This module is that
serving tier, built on the pieces earlier PRs laid down:

- the frozen :class:`~repro.graph.snapshot.GraphSnapshot` pins one
  epoch of CSR arrays that every shard slices;
- :func:`~repro.distributed.partition.range_partition` defines the
  shard scheme — node at dense position ``i`` of ``n`` lives on shard
  ``min(i * P // n, P − 1)``, so :class:`ShardRouter` resolves any
  account with **one integer division and no lookup table**;
- :func:`~repro.distributed.cluster.distributed_single_source_scores`
  runs the Pregel-style depth-k exploration (bit-identical to the
  single-machine engine) with cross-shard message accounting;
- landmark inverted lists are *homed*: each
  :class:`ShardWorker` owns the lists of the landmarks in its range,
  and remote lists travel through an accounted, deadline-checked,
  retry-bounded :class:`ShardChannel`.

Query execution is scatter-gather (:class:`ShardedPlatform.serve`):
route the request to its home shard, explore the k-vicinity locally,
fetch the lists of encountered remote landmarks over the channel,
compose Proposition 4 exactly as the single-machine
:class:`~repro.landmarks.ApproximateRecommender`, and merge per-shard
top-n partial rankings with :class:`~repro.utils.topk.TopK`. With all
shards healthy the ranking is **bitwise-identical** to the
single-machine recommender (parity-tested for 1, 2, and 7 shards):
each shard's local top-n provably contains every one of its members of
the global top-n, so the merged top-n equals the global top-n.

Replication (:class:`ReplicaSet`) puts ``R`` identical
:class:`ShardWorker` replicas behind every shard range. Replicas are
built from the same pinned snapshot slice, so any replica answers any
request for its range bitwise-identically; which replica answers is
pure routing:

- the **primary** is the live replica with the lowest replica id — a
  deterministic choice, so a fixed seed replays the same replica
  schedule;
- a down or unreachable primary **fails over** to the next live
  replica in id order (``shard.replica.failover_total``); the shard
  degrades only when *every* replica is gone;
- remote landmark fetches are **hedged**: the channel tracks observed
  per-replica latency, and when a fetch's simulated latency exceeds
  the replica's latency quantile (:attr:`ShardChannel.hedge_quantile`
  over its recorded history), the same fetch is re-issued to the next
  live replica and the first answer wins
  (``shard.hedge.sent_total`` / ``shard.hedge.won_total``).

Epoch rollover (:class:`EpochRollover`) makes graph updates
zero-downtime: :meth:`ShardedPlatform.begin_rollover` builds a full
next-epoch generation of replica workers *beside* the serving one and
warms their landmark-vector caches
(:class:`~repro.landmarks.query_engine.LandmarkVectorCache`); the
router flips atomically — one reference assignment — only once every
replica reports ready, and requests that captured the old generation
drain against it. Clients therefore never see
:class:`~repro.errors.StaleSnapshotError` during a rollover driven by
:mod:`repro.dynamics` events; the old epoch simply keeps serving until
the flip (``shard.rollover.*`` metrics).

Failure semantics (all simulated and deterministic — the channel uses
a seeded RNG and a virtual millisecond clock, never the wall clock):

- every replica of the home shard down →
  :class:`~repro.errors.ShardDownError` (there is nothing to degrade
  to);
- every replica of a remote shard down, or unreachable after the retry
  budget across the failover chain, or the request's simulated
  deadline exhausted mid-gather → the response degrades to what the
  healthy shards can answer and is flagged ``degraded=True``
  (exploration treats the lost shard's nodes as absorbing, its homed
  landmark lists are skipped, and its candidates drop out of the
  merge);
- epoch mismatch — the pinned snapshot lagging its live graph with no
  rollover in progress, or any worker pinned to a different epoch than
  its generation — raises :class:`~repro.errors.StaleSnapshotError`
  unless the request sets ``allow_stale=True``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import (Deque, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from ..api import (RecommendationRequest, RecommendationResponse,
                   response_from_pairs)
from ..config import LandmarkParams, ScoreParams
from ..core.scores import AuthorityIndex
from ..errors import (ChannelError, ConfigurationError, DeadlineExceededError,
                      ShardDownError, StaleSnapshotError)
from ..graph.labeled_graph import TopicSet
from ..graph.snapshot import GraphLike, GraphSnapshot, as_snapshot
from ..landmarks.index import LandmarkEntry, LandmarkIndex
from ..landmarks.query_engine import (LandmarkVectorCache, LandmarkVectors,
                                      compose_landmark_contributions,
                                      vectors_from_entries)
from ..obs import runtime as _obs
from ..semantics.matrix import SimilarityMatrix
from ..utils.topk import TopK
from .cluster import MessageStats, distributed_single_source_scores

__all__ = [
    "QueryCost",
    "ShardSpec",
    "shard_bounds",
    "ShardRouter",
    "ShardChannel",
    "ShardWorker",
    "ReplicaSet",
    "EpochRollover",
    "ShardedPlatform",
]


@dataclass(frozen=True)
class QueryCost:
    """Network cost of one sharded recommendation request.

    Attributes:
        propagation: Message stats of the depth-limited exploration.
        remote_landmarks: Landmarks whose lists were fetched from other
            shards.
        local_landmarks: Landmarks homed on the request's home shard.
        entries_transferred: Inverted-list entries shipped from remote
            landmarks (each entry is a (node, score, topo) triple).
    """

    propagation: MessageStats
    remote_landmarks: int
    local_landmarks: int
    entries_transferred: int


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShardSpec:
    """One shard's contiguous slice of the dense node index.

    Attributes:
        shard_id: Shard number in ``0..num_shards-1``.
        lo: First owned dense position (inclusive).
        hi: One past the last owned dense position (exclusive).
    """

    shard_id: int
    lo: int
    hi: int

    @property
    def num_nodes(self) -> int:
        """Number of accounts this shard owns."""
        return self.hi - self.lo

    @property
    def is_empty(self) -> bool:
        """True when the shard owns no nodes (``num_shards > num_nodes``)."""
        return self.hi <= self.lo


def shard_bounds(num_nodes: int, num_shards: int) -> List[ShardSpec]:
    """Contiguous position ranges matching :func:`range_partition`.

    Shard ``s`` owns positions ``[⌈s·n/P⌉, ⌈(s+1)·n/P⌉)`` — exactly the
    preimage of ``i ↦ min(i·P // n, P−1)``, so a worker built from
    these bounds agrees with the router's division on every node. When
    ``num_shards > num_nodes``, ``num_shards − num_nodes`` of the
    shards are empty (see the :func:`range_partition` docstring); they
    are constructed but not routable.
    """
    if num_shards < 1:
        raise ConfigurationError(
            f"num_shards must be >= 1, got {num_shards}")
    if num_nodes < 1:
        raise ConfigurationError("cannot shard an empty graph")
    return [
        ShardSpec(
            shard_id=shard,
            lo=(shard * num_nodes + num_shards - 1) // num_shards,
            hi=((shard + 1) * num_nodes + num_shards - 1) // num_shards,
        )
        for shard in range(num_shards)
    ]


class ShardRouter:
    """Resolve accounts to shards with one integer division.

    The snapshot's dense index is the routing function: account →
    position (one dict lookup the snapshot already maintains) →
    ``min(position * num_shards // num_nodes, num_shards − 1)``. No
    routing table exists anywhere in the tier.
    """

    def __init__(self, snapshot: GraphSnapshot, num_shards: int) -> None:
        self.specs = shard_bounds(snapshot.num_nodes, num_shards)
        self.num_shards = num_shards
        self.num_nodes = snapshot.num_nodes
        self._snapshot = snapshot

    def shard_of(self, node: int) -> int:
        """Home shard of *node* (raises ``NodeNotFoundError`` on unknown)."""
        position = self._snapshot.index_of(node)
        return min(position * self.num_shards // self.num_nodes,
                   self.num_shards - 1)

    def route(self, shard_id: int) -> ShardSpec:
        """The spec of *shard_id*, refusing unroutable shards.

        Raises:
            ConfigurationError: *shard_id* is out of range, or the
                shard is empty (``num_shards > num_nodes`` leaves some
                shards with no nodes — no request can ever
                legitimately land there).
        """
        if not 0 <= shard_id < self.num_shards:
            raise ConfigurationError(
                f"shard {shard_id} does not exist "
                f"(num_shards={self.num_shards})")
        spec = self.specs[shard_id]
        if spec.is_empty:
            raise ConfigurationError(
                f"shard {shard_id} is empty: num_shards={self.num_shards} "
                f"exceeds num_nodes={self.num_nodes}, so trailing shards "
                f"own no nodes and are not routable")
        return spec

    def assignment(self) -> Mapping[int, int]:
        """Node → shard mapping computed on demand — still no table."""
        return _RouterAssignment(self)


class _RouterAssignment(Mapping[int, int]):
    """Lazy ``Assignment`` view over the router's division.

    The propagation engine wants a ``node → partition`` mapping; this
    satisfies the ``Mapping`` contract by *computing* each lookup from
    the dense position, preserving the tier's no-lookup-table property.
    """

    def __init__(self, router: ShardRouter) -> None:
        self._router = router

    def __getitem__(self, node: int) -> int:
        return self._router.shard_of(node)

    def __contains__(self, node: object) -> bool:
        return node in self._router._snapshot.position

    def __iter__(self) -> Iterator[int]:
        return iter(self._router._snapshot.node_ids)

    def __len__(self) -> int:
        return self._router.num_nodes


# ----------------------------------------------------------------------
# Simulated channel + per-request clock
# ----------------------------------------------------------------------

class _RequestClock:
    """Virtual per-request millisecond clock.

    All latency in this tier is *simulated* (charged per channel hop),
    so runs are deterministic and the obs layer's no-wall-clock rule
    (R7) holds. ``charge`` raises once the request's deadline budget is
    exhausted.
    """

    def __init__(self, deadline_ms: Optional[float]) -> None:
        self.deadline_ms = deadline_ms
        self.elapsed_ms = 0.0

    def charge(self, ms: float) -> None:
        self.elapsed_ms += ms
        if self.deadline_ms is not None and self.elapsed_ms > self.deadline_ms:
            raise DeadlineExceededError(self.deadline_ms, self.elapsed_ms)


class ShardChannel:
    """Simulated cross-shard link with injectable flakiness and skew.

    Every fetch charges its drawn latency of virtual time to the
    request clock and fails with probability ``failure_rate`` (seeded
    RNG, so a given request sequence is reproducible). The platform
    retries failed fetches up to its retry budget, failing over down
    the replica chain.

    Latency model: a fetch to replica ``r`` of shard ``s`` costs the
    per-replica override set via :meth:`set_replica_latency` (else
    ``latency_ms``) plus a uniform ``[0, jitter_ms)`` draw. The channel
    records every draw in a bounded per-replica history; the
    ``hedge_quantile`` nearest-rank percentile of that history is the
    replica's **hedge threshold** — a fetch drawn slower than its own
    replica's recent behaviour triggers a hedge to the backup replica
    (see :meth:`hedged_fetch`). With the default configuration (fixed
    latency, no jitter, no overrides) no fetch ever exceeds its
    history's quantile, so hedging is quiescent and the channel behaves
    exactly like the pre-replication link.
    """

    def __init__(self, latency_ms: float = 1.0, failure_rate: float = 0.0,
                 seed: int = 0, jitter_ms: float = 0.0,
                 hedge_quantile: float = 0.95, hedge_min_samples: int = 8,
                 history_window: int = 64) -> None:
        if latency_ms < 0.0:
            raise ConfigurationError(
                f"latency_ms must be >= 0, got {latency_ms}")
        if not 0.0 <= failure_rate <= 1.0:
            raise ConfigurationError(
                f"failure_rate must be in [0, 1], got {failure_rate}")
        if jitter_ms < 0.0:
            raise ConfigurationError(
                f"jitter_ms must be >= 0, got {jitter_ms}")
        if not 0.5 <= hedge_quantile <= 1.0:
            raise ConfigurationError(
                f"hedge_quantile must be in [0.5, 1], got {hedge_quantile}")
        if hedge_min_samples < 1:
            raise ConfigurationError(
                f"hedge_min_samples must be >= 1, got {hedge_min_samples}")
        if history_window < hedge_min_samples:
            raise ConfigurationError(
                f"history_window ({history_window}) must be >= "
                f"hedge_min_samples ({hedge_min_samples})")
        self.latency_ms = latency_ms
        self.failure_rate = failure_rate
        self.jitter_ms = jitter_ms
        self.hedge_quantile = hedge_quantile
        self.hedge_min_samples = hedge_min_samples
        self.history_window = history_window
        self.fetches_total = 0
        self.failures_total = 0
        self.hedges_sent = 0
        self.hedges_won = 0
        self._rng = random.Random(seed)
        self._replica_latency: Dict[Tuple[int, int], float] = {}
        self._history: Dict[Tuple[int, int], Deque[float]] = {}

    # -- latency model -------------------------------------------------
    def set_replica_latency(self, shard_id: int, replica_id: int,
                            latency_ms: float) -> None:
        """Override the base latency of one replica (slow-replica chaos)."""
        if latency_ms < 0.0:
            raise ConfigurationError(
                f"latency_ms must be >= 0, got {latency_ms}")
        self._replica_latency[(shard_id, replica_id)] = latency_ms

    def clear_replica_latency(self, shard_id: int, replica_id: int) -> None:
        """Drop a per-replica latency override (back to ``latency_ms``)."""
        self._replica_latency.pop((shard_id, replica_id), None)

    def _draw_latency(self, worker: "ShardWorker") -> float:
        key = (worker.spec.shard_id, worker.replica_id)
        base = self._replica_latency.get(key, self.latency_ms)
        if self.jitter_ms:
            base += self._rng.random() * self.jitter_ms
        return base

    def _record(self, worker: "ShardWorker", latency: float) -> None:
        key = (worker.spec.shard_id, worker.replica_id)
        history = self._history.get(key)
        if history is None:
            history = self._history[key] = deque(maxlen=self.history_window)
        history.append(latency)

    def hedge_threshold(self, worker: "ShardWorker") -> Optional[float]:
        """Observed latency quantile of *worker*'s replica, or ``None``.

        ``None`` means "not enough history to judge" (fewer than
        ``hedge_min_samples`` recorded fetches) — hedging never fires
        on a cold replica. The percentile is nearest-rank over the
        bounded recent-history window, so a replica that *degrades*
        (its draws start landing above its own recent quantile)
        triggers hedges until the window re-learns the new normal.
        """
        history = self._history.get((worker.spec.shard_id, worker.replica_id))
        if history is None or len(history) < self.hedge_min_samples:
            return None
        ordered = sorted(history)
        rank = min(max(int(self.hedge_quantile * len(ordered) + 0.999999) - 1,
                       0), len(ordered) - 1)
        return ordered[rank]

    # -- fetch primitives ----------------------------------------------
    def _resolve(self, worker: "ShardWorker", landmark: int, topic: str
                 ) -> Tuple[str, Optional[LandmarkVectors]]:
        """Outcome of one leg: ``("ok", vectors) | ("down"|"drop", None)``.

        Draws the failure RNG exactly once per leg (when flakiness is
        configured), so a fixed seed replays identical simulated
        failures.
        """
        if worker.down:
            return "down", None
        if self.failure_rate and self._rng.random() < self.failure_rate:
            self.failures_total += 1
            return "drop", None
        return "ok", worker.landmark_vectors(landmark, topic)

    def _single(self, worker: "ShardWorker", latency: float, landmark: int,
                topic: str, clock: _RequestClock,
                attempt: int) -> LandmarkVectors:
        clock.charge(latency)
        self._record(worker, latency)
        self.fetches_total += 1
        status, payload = self._resolve(worker, landmark, topic)
        if status == "down":
            raise ShardDownError(worker.spec.shard_id)
        if status == "drop":
            raise ChannelError(worker.spec.shard_id, attempt)
        return payload

    def fetch(self, worker: "ShardWorker", landmark: int, topic: str,
              clock: _RequestClock, attempt: int) -> LandmarkVectors:
        """One un-hedged fetch attempt of a landmark's inverted list.

        Raises:
            DeadlineExceededError: the request budget ran out.
            ShardDownError: the target worker is marked down.
            ChannelError: the simulated link dropped this attempt.
        """
        return self._single(worker, self._draw_latency(worker), landmark,
                            topic, clock, attempt)

    def hedged_fetch(self, primary: "ShardWorker",
                     backup: Optional["ShardWorker"], landmark: int,
                     topic: str, clock: _RequestClock,
                     attempt: int) -> LandmarkVectors:
        """One fetch attempt against *primary*, hedged to *backup*.

        The hedge fires when the primary's drawn latency exceeds its
        own observed :meth:`hedge_threshold`: the identical fetch is
        issued to *backup* at the threshold mark (the moment a real
        hedging client would stop waiting), and whichever leg completes
        first — primary at its draw, backup at ``threshold + its
        draw`` — supplies the answer and the virtual time charged. The
        loser is discarded but still pays its fetch accounting; only
        the leg actually waited for feeds the latency history (an
        abandoned leg's completion is never observed — recording it
        would teach the threshold the outlier it just dodged). With no
        backup, no threshold (cold history), or a fast draw, this
        degenerates to exactly :meth:`fetch`.

        Raises:
            DeadlineExceededError: the request budget ran out.
            ShardDownError: every issued leg hit a down replica.
            ChannelError: every issued leg was dropped by the link.
        """
        draw_primary = self._draw_latency(primary)
        threshold = (self.hedge_threshold(primary)
                     if backup is not None else None)
        if threshold is None or draw_primary <= threshold:
            return self._single(primary, draw_primary, landmark, topic,
                                clock, attempt)

        status_p, payload_p = self._resolve(primary, landmark, topic)
        draw_backup = self._draw_latency(backup)
        status_b, payload_b = self._resolve(backup, landmark, topic)
        self.hedges_sent += 1
        self.fetches_total += 2
        _obs.count("shard.hedge.sent_total")
        done_primary = draw_primary
        done_backup = threshold + draw_backup
        legs = sorted([
            (done_primary, draw_primary, primary, 0, status_p, payload_p),
            (done_backup, draw_backup, backup, 1, status_b, payload_b),
        ], key=lambda leg: (leg[0], leg[3]))
        for done, draw, worker, leg, status, payload in legs:
            if status == "ok":
                clock.charge(done)
                self._record(worker, draw)
                if leg == 1:
                    self.hedges_won += 1
                    _obs.count("shard.hedge.won_total")
                return payload
        clock.charge(max(done_primary, done_backup))
        self._record(primary, draw_primary)
        self._record(backup, draw_backup)
        if status_p == "down" and status_b == "down":
            raise ShardDownError(primary.spec.shard_id)
        raise ChannelError(primary.spec.shard_id, attempt)


# ----------------------------------------------------------------------
# Worker + replica set
# ----------------------------------------------------------------------

class ShardWorker:  # repro: ignore[W4] -- instantiated by ShardedPlatform.build; exported as the per-shard component type (docs/ARCHITECTURE.md)
    """One shard replica: a contiguous snapshot slice plus homed lists.

    The worker owns rebased copies of its CSR rows (``out_indptr``
    starts at 0, ``out_indices`` still hold global dense positions —
    edges may point anywhere), a shared :class:`AuthorityIndex`, and
    the inverted lists of every landmark whose home position falls in
    its range. Adjacency reads for non-owned nodes are refused —
    cross-shard data moves only through the platform's channel.

    Replicas of one shard range are interchangeable: they slice the
    same pinned snapshot, so any replica answers bitwise-identically.
    A worker's lifecycle (``state``) is ``warming`` → ``ready`` (after
    :meth:`warm` prebuilds its landmark-vector cache) with ``down``
    reachable from either — see the replica state machine in
    ``docs/ARCHITECTURE.md``. Generation-0 workers are born ready
    (cold-start serving fills caches on demand); rollover generations
    are born warming and must report ready before the router flips.
    ``down`` mirrors the platform's health set for this worker's
    ``(shard, replica)`` slot, which outlives generations.
    """

    def __init__(self, snapshot: GraphSnapshot, spec: ShardSpec,
                 index: LandmarkIndex, router: ShardRouter,
                 authority: Optional[AuthorityIndex] = None,
                 replica_id: int = 0, ready: bool = True) -> None:
        self.spec = spec
        self.replica_id = replica_id
        self.epoch = snapshot.epoch
        self.ready = ready
        self.down = False
        self._snapshot = snapshot
        lo, hi = spec.lo, spec.hi
        #: This worker's slice of the node-id table. A slice, not a
        #: copy: for store-loaded snapshots ``node_ids`` is a ``range``
        #: and the slice stays a ``range`` — no per-node heap cost.
        self.node_ids: Tuple[int, ...] = snapshot.node_ids[lo:hi]
        #: This shard's CSR rows, rebased so row ``i`` is local node
        #: ``i``. ``out_slice`` returns *views* of the snapshot arrays
        #: (only the small rebased indptr is copied), so replica
        #: warm-up and rollover ``_Generation`` builds on an
        #: mmap-backed snapshot open file-backed slices and page in
        #: rows on first read instead of deep-copying the adjacency.
        (self.out_indptr, self.out_indices,
         self.out_label_ids) = snapshot.out_slice(lo, hi)
        #: Per-shard authority cache (scores are snapshot-global, the
        #: memo is shard-private unless a shared cache is passed in).
        self.authority = (authority if authority is not None
                          else AuthorityIndex(snapshot))
        #: Landmarks homed here, with their inverted lists.
        self.landmarks: Tuple[int, ...] = tuple(
            landmark for landmark in sorted(index.landmarks)
            if router.shard_of(landmark) == spec.shard_id)
        self._lists: Dict[int, Dict[str, List[LandmarkEntry]]] = {
            landmark: {
                topic: list(index.recommendations(landmark, topic))
                for topic in index.topics_of(landmark)
            }
            for landmark in self.landmarks
        }
        self.requests_total = 0
        self._row_cache: Dict[int, Dict[int, TopicSet]] = {}
        # Vectorised views of the homed lists. The worker's list copies
        # are frozen at construction (epoch-pinned), so the version
        # component is always 0 — only the epoch key matters here.
        self._vector_cache = LandmarkVectorCache()

    @property
    def num_nodes(self) -> int:
        """Number of accounts this worker owns."""
        return len(self.node_ids)

    @property
    def state(self) -> str:
        """Replica lifecycle state: ``down``, ``warming``, or ``ready``."""
        if self.down:
            return "down"
        return "ready" if self.ready else "warming"

    def warm(self) -> int:
        """Prebuild the vectorised view of every homed list; mark ready.

        This is the rollover warmup: a next-epoch replica runs it
        beside the serving generation so the flip lands on hot
        :class:`~repro.landmarks.query_engine.LandmarkVectorCache`
        entries instead of cold misses. Returns the number of
        ``(landmark, topic)`` vector views built.
        """
        built = 0
        for landmark in self.landmarks:
            for topic in sorted(self._lists[landmark]):
                self.landmark_vectors(landmark, topic)
                built += 1
        self.ready = True
        _obs.count("shard.replica.warmups_total")
        return built

    def owns(self, node: int) -> bool:
        """Whether *node*'s home position falls in this shard's range."""
        position = self._snapshot.position.get(node)
        return (position is not None
                and self.spec.lo <= position < self.spec.hi)

    def out_neighbors(self, node: int) -> Mapping[int, TopicSet]:
        """Adjacency of an *owned* node, read from the shard's own rows.

        Identical content to the full snapshot's row (same ids, same
        interned labels), which is what makes shard-side exploration
        bit-exact. Raises :class:`ConfigurationError` for non-owned
        nodes — the worker has no rows for them.
        """
        cached = self._row_cache.get(node)
        if cached is not None:
            return cached
        position = self._snapshot.index_of(node)
        if not self.spec.lo <= position < self.spec.hi:
            raise ConfigurationError(
                f"shard {self.spec.shard_id} does not own node {node} "
                f"(position {position} outside [{self.spec.lo}, "
                f"{self.spec.hi}))")
        local = position - self.spec.lo
        start = int(self.out_indptr[local])
        stop = int(self.out_indptr[local + 1])
        node_ids = self._snapshot.node_ids
        labels = self._snapshot.labels
        row = {
            node_ids[j]: labels[l]
            for j, l in zip(self.out_indices[start:stop].tolist(),
                            self.out_label_ids[start:stop].tolist())
        }
        self._row_cache[node] = row
        return row

    def landmark_vectors(self, landmark: int, topic: str) -> LandmarkVectors:
        """Vectorised view of a landmark list homed on this shard.

        Raises :class:`ConfigurationError` when asked for a landmark
        homed elsewhere — list reads never silently cross shards. The
        arrays are built once per ``(landmark, topic)`` and cached (the
        worker's list copies never change within its pinned epoch).
        """
        lists = self._lists.get(landmark)
        if lists is None:
            raise ConfigurationError(
                f"landmark {landmark} is not homed on shard "
                f"{self.spec.shard_id}")
        return self._vector_cache.get_or_build(
            self.epoch, landmark, topic, 0,
            lambda: vectors_from_entries(
                self._snapshot, lists.get(topic, []), 0))


class ReplicaSet:
    """R interchangeable :class:`ShardWorker` replicas of one range.

    Primary selection is deterministic: the live replica with the
    lowest replica id serves reads, and failover simply advances down
    the id order. No election, no coordination state — a fixed seed
    replays the identical replica schedule, which is what lets the
    chaos suite assert bitwise-stable rankings under failure.
    """

    def __init__(self, spec: ShardSpec,
                 replicas: Sequence[ShardWorker]) -> None:
        if not replicas:
            raise ConfigurationError(
                f"shard {spec.shard_id} needs at least one replica")
        self.spec = spec
        self.replicas = list(replicas)

    @property
    def num_replicas(self) -> int:
        """Configured replication factor of this shard range."""
        return len(self.replicas)

    def live(self) -> List[ShardWorker]:
        """Live replicas in deterministic failover (replica-id) order."""
        return [worker for worker in self.replicas if not worker.down]

    def primary(self) -> Optional[ShardWorker]:
        """The serving replica — lowest live replica id, else ``None``."""
        for worker in self.replicas:
            if not worker.down:
                return worker
        return None

    @property
    def all_down(self) -> bool:
        """Whether every replica of this range is down (shard outage)."""
        return all(worker.down for worker in self.replicas)

    @property
    def all_ready(self) -> bool:
        """Whether every replica finished warming (rollover gate)."""
        return all(worker.ready for worker in self.replicas)


class _ShardedGraphView:
    """Graph facade routing adjacency reads to the owning replica set.

    The propagation engine only ever calls ``out_neighbors``; each call
    lands on the owning range's primary replica, so a traversal that
    crosses a shard boundary reads the *target* shard's rows for the
    next hop — matching how a real deployment walks a partitioned
    graph. Fully-down shards are made absorbing by the platform before
    the engine runs, so their rows are never read.
    """

    def __init__(self, replica_sets: Sequence[ReplicaSet],
                 router: ShardRouter) -> None:
        self._replica_sets = replica_sets
        self._router = router

    def out_neighbors(self, node: int) -> Mapping[int, TopicSet]:
        replica_set = self._replica_sets[self._router.shard_of(node)]
        worker = replica_set.primary()
        if worker is None:
            raise ShardDownError(replica_set.spec.shard_id)
        return worker.out_neighbors(node)


# ----------------------------------------------------------------------
# Generations + rollover
# ----------------------------------------------------------------------

@dataclass
class _Generation:
    """Everything pinned to one served epoch, swapped atomically.

    The platform holds exactly one reference (``_generation``); a
    rollover builds the next instance completely off to the side and
    the flip is a single attribute assignment, so a request that
    captured a generation at entry keeps a consistent epoch end to end
    no matter when the flip lands.
    """

    snapshot: GraphSnapshot
    router: ShardRouter
    replica_sets: List[ReplicaSet]
    view: _ShardedGraphView
    assignment: Mapping[int, int]
    index: LandmarkIndex
    landmark_set: frozenset
    sorted_landmarks: List[int]


class EpochRollover:
    """Coordinator of one zero-downtime epoch flip.

    Produced by :meth:`ShardedPlatform.begin_rollover`. While this
    object is pending, the platform keeps serving the *old* generation
    — including when the live graph has already moved past its pinned
    epoch (``shard.rollover.stale_served_total`` counts those
    requests; none of them raises
    :class:`~repro.errors.StaleSnapshotError`). :meth:`flip` refuses
    to switch until every next-generation replica reports ready.
    """

    def __init__(self, platform: "ShardedPlatform",
                 generation: _Generation) -> None:
        self._platform = platform
        self.next_generation = generation
        self.flipped = False

    @property
    def epoch(self) -> int:
        """The epoch the platform will serve after the flip."""
        return self.next_generation.snapshot.epoch

    @property
    def ready(self) -> bool:
        """Whether every next-generation replica finished warming."""
        return all(replica_set.all_ready
                   for replica_set in self.next_generation.replica_sets)

    def warm(self) -> int:
        """Warm every next-generation replica beside the serving tier.

        Returns the total number of landmark-vector views prebuilt
        across all replicas (the ``shard.rollover.warm`` span).
        """
        built = 0
        replicas = 0
        with _obs.span("shard.rollover.warm") as _sp:
            for replica_set in self.next_generation.replica_sets:
                for worker in replica_set.replicas:
                    built += worker.warm()
                    replicas += 1
            if _sp:
                _sp.set(epoch=self.epoch, replicas=replicas, vectors=built)
        return built

    def flip(self) -> int:
        """Atomically switch the platform to the new generation.

        One reference assignment: requests already in flight keep the
        generation they captured (and drain against it); every request
        admitted after this line serves the new epoch. The new workers
        carry the platform's replica health, and every shard's
        ``replicas_live`` gauge is re-emitted for them. Returns the new
        epoch.

        Raises:
            ConfigurationError: the rollover already flipped, or a
                replica has not reported ready yet.
        """
        if self.flipped:
            raise ConfigurationError("rollover already flipped")
        if not self.ready:
            warming = sorted(
                (replica_set.spec.shard_id, worker.replica_id)
                for replica_set in self.next_generation.replica_sets
                for worker in replica_set.replicas if not worker.ready)
            raise ConfigurationError(
                f"cannot flip to epoch {self.epoch}: replicas still "
                f"warming (shard, replica): {warming}")
        self._platform._generation = self.next_generation
        self._platform._rollover = None
        self.flipped = True
        _obs.count("shard.rollover.completed_total")
        _obs.gauge("shard.rollover.in_progress", 0.0)
        for shard_id in range(self._platform.num_shards):
            self._platform._gauge_live(shard_id)
        return self.epoch


# ----------------------------------------------------------------------
# Platform
# ----------------------------------------------------------------------

class ShardedPlatform:
    """Scatter-gather recommendation serving over replicated shards.

    Implements the :class:`repro.api.Recommender` protocol. Build with
    :meth:`build`::

        platform = ShardedPlatform.build(graph, sim, index,
                                         num_shards=4, replicas=2)
        response = platform.recommend(user, "technology", top_n=10)

    With every shard healthy the response ranking is bitwise-identical
    to :class:`~repro.landmarks.ApproximateRecommender` over the same
    index — replication and hedging change *which replica* answers,
    never *what* it answers; ``response.cost`` carries the cross-shard
    traffic the same request paid (a
    :class:`~repro.distributed.QueryCost`) and ``response.served_epoch``
    / ``response.hedged`` record the serving epoch and whether any
    fetch was hedged.
    """

    def __init__(
        self,
        snapshot: GraphSnapshot,
        router: ShardRouter,
        replica_sets: Sequence[ReplicaSet],
        similarity: SimilarityMatrix,
        index: LandmarkIndex,
        params: Optional[ScoreParams] = None,
        landmark_params: Optional[LandmarkParams] = None,
        channel: Optional[ShardChannel] = None,
        deadline_ms: float = 50.0,
        max_retries: int = 2,
        hedge: bool = True,
        source: Optional[GraphLike] = None,
    ) -> None:
        if deadline_ms <= 0.0:
            raise ConfigurationError(
                f"deadline_ms must be > 0, got {deadline_ms}")
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}")
        replica_sets = list(replica_sets)
        if not replica_sets:
            raise ConfigurationError("platform needs at least one shard")
        self.params = params if params is not None else index.params
        self.landmark_params = (landmark_params if landmark_params is not None
                                else index.landmark_params)
        self.channel = channel if channel is not None else ShardChannel()
        self.deadline_ms = deadline_ms
        self.max_retries = max_retries
        #: Whether remote fetches may hedge to a backup replica. Only
        #: meaningful with ``replicas >= 2`` — with a single replica
        #: there is never a backup to hedge to.
        self.hedge = hedge
        #: Replication factor every generation is built with.
        self.replicas = replica_sets[0].num_replicas
        #: Down ``(shard, replica)`` slots — the one record of replica
        #: health, read by every generation's workers.
        self._down_slots: Set[Tuple[int, int]] = set()
        self._similarity = similarity
        self._num_shards = router.num_shards
        self._source = source
        self._rollover: Optional[EpochRollover] = None
        self._generation = self._assemble_generation(
            snapshot, router, replica_sets, index)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: GraphLike,
        similarity: SimilarityMatrix,
        index: LandmarkIndex,
        num_shards: int,
        *,
        replicas: int = 1,
        params: Optional[ScoreParams] = None,
        landmark_params: Optional[LandmarkParams] = None,
        authority: Optional[AuthorityIndex] = None,
        channel: Optional[ShardChannel] = None,
        deadline_ms: float = 50.0,
        max_retries: int = 2,
        allow_stale: bool = False,
        hedge: bool = True,
    ) -> "ShardedPlatform":
        """Pin a snapshot, cut it into *num_shards* ranges, start workers.

        Args:
            graph: Live graph or prebuilt snapshot to serve from.
                Passing the live graph lets :meth:`begin_rollover`
                re-snapshot it without arguments.
            similarity: Topic-similarity matrix shared by all shards.
            index: Landmark index whose lists get homed per shard.
            num_shards: Number of contiguous range shards.
            replicas: Replication factor R — identical workers per
                shard range with deterministic primary/failover order.
            params: Propagation knobs (default: the index's).
            landmark_params: Exploration knobs (default: the index's).
            authority: Share one authority cache across workers instead
                of the snapshot's own shared cache.
            channel: Cross-shard link simulation (default: reliable,
                1 ms per fetch, no jitter — hedging quiescent).
            deadline_ms: Default per-request simulated latency budget.
            max_retries: Re-attempts per failed remote fetch, per
                replica in the failover chain.
            allow_stale: Accept a snapshot whose graph already moved on.
            hedge: Allow hedged remote fetches when ``replicas >= 2``.
        """
        if replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {replicas}")
        snapshot = as_snapshot(graph, allow_stale)
        router = ShardRouter(snapshot, num_shards)
        replica_sets = cls._build_replica_sets(
            snapshot, router, index, replicas, authority=authority,
            ready=True)
        return cls(snapshot, router, replica_sets, similarity, index,
                   params=params, landmark_params=landmark_params,
                   channel=channel, deadline_ms=deadline_ms,
                   max_retries=max_retries, hedge=hedge, source=graph)

    @staticmethod
    def _build_replica_sets(
            snapshot: GraphSnapshot, router: ShardRouter,
            index: LandmarkIndex, replicas: int, *,
            authority: Optional[AuthorityIndex] = None,
            ready: bool = True) -> List[ReplicaSet]:
        shared_authority = (authority if authority is not None
                            else snapshot.authority())
        return [
            ReplicaSet(spec, [
                ShardWorker(snapshot, spec, index, router,
                            authority=shared_authority, replica_id=replica,
                            ready=ready)
                for replica in range(replicas)
            ])
            for spec in router.specs
        ]

    def _assemble_generation(self, snapshot: GraphSnapshot,
                             router: ShardRouter,
                             replica_sets: List[ReplicaSet],
                             index: LandmarkIndex) -> _Generation:
        landmark_set = frozenset(index.landmarks)
        return _Generation(
            snapshot=snapshot,
            router=router,
            replica_sets=replica_sets,
            view=_ShardedGraphView(replica_sets, router),
            assignment=router.assignment(),
            index=index,
            landmark_set=landmark_set,
            # Globally sorted composition order — the same float
            # accumulation order as ApproximateRecommender, which is
            # what keeps the sharded ranking bitwise-identical to it.
            sorted_landmarks=sorted(landmark_set),
        )

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shards (including empty, unroutable ones)."""
        return self._num_shards

    @property
    def epoch(self) -> int:
        """The pinned snapshot epoch the serving generation answers from."""
        return self._generation.snapshot.epoch

    @property
    def snapshot(self) -> GraphSnapshot:
        """The pinned snapshot the serving generation answers from.

        The ingest pipeline seeds its first delta overlay from this —
        writes accumulate against the served base, never behind it.
        """
        return self._generation.snapshot

    @property
    def router(self) -> ShardRouter:
        """The serving generation's router."""
        return self._generation.router

    @property
    def index(self) -> LandmarkIndex:
        """The serving generation's landmark index."""
        return self._generation.index

    @property
    def replica_sets(self) -> List[ReplicaSet]:
        """The serving generation's replica sets, one per shard."""
        return self._generation.replica_sets

    @property
    def workers(self) -> List[ShardWorker]:
        """Replica 0 of every shard — the primaries at build time.

        Kept for the pre-replication surface (``platform.workers[s]``);
        with ``replicas=1`` this is exactly the old worker list.
        """
        return [replica_set.replicas[0]
                for replica_set in self._generation.replica_sets]

    @property
    def pending_rollover(self) -> Optional[EpochRollover]:
        """The in-progress rollover, or ``None``."""
        return self._rollover

    def mark_down(self, shard_id: int,
                  replica: Optional[int] = None) -> None:
        """Simulate an outage of *shard_id*.

        With *replica* given, only that replica goes down (its peers
        fail over); with ``None`` the whole replica set goes down —
        the pre-replication whole-shard outage. The mark is kept per
        ``(shard, replica)`` slot, so it holds for a pending rollover's
        workers and for every later generation until :meth:`mark_up`.
        """
        for slot in self._slots(shard_id, replica):
            if slot not in self._down_slots:
                self._down_slots.add(slot)
                _obs.count("shard.replica.down_total")
        self._health_changed(shard_id)

    def mark_up(self, shard_id: int,
                replica: Optional[int] = None) -> None:
        """Bring a downed shard (or one replica of it) back."""
        for slot in self._slots(shard_id, replica):
            if slot in self._down_slots:
                self._down_slots.discard(slot)
                _obs.count("shard.replica.recovered_total")
        self._health_changed(shard_id)

    def _slots(self, shard_id: int,
               replica: Optional[int]) -> List[Tuple[int, int]]:
        spec = self.router.route(shard_id)
        if replica is None:
            return [(spec.shard_id, r) for r in range(self.replicas)]
        if not 0 <= replica < self.replicas:
            raise ConfigurationError(
                f"shard {shard_id} has no replica {replica} "
                f"(replicas={self.replicas})")
        return [(spec.shard_id, replica)]

    def _health_changed(self, shard_id: int) -> None:
        self._apply_health(self._generation)
        if self._rollover is not None:
            self._apply_health(self._rollover.next_generation)
        self._gauge_live(shard_id)

    def _apply_health(self, generation: _Generation) -> None:
        """Copy the down slots onto *generation*'s workers."""
        for replica_set in generation.replica_sets:
            for worker in replica_set.replicas:
                worker.down = ((replica_set.spec.shard_id, worker.replica_id)
                               in self._down_slots)

    def _gauge_live(self, shard_id: int) -> None:
        replica_set = self._generation.replica_sets[shard_id]
        _obs.gauge(f"shard.{shard_id}.replicas_live",
                   float(len(replica_set.live())))

    # ------------------------------------------------------------------
    # Epoch rollover
    # ------------------------------------------------------------------
    def begin_rollover(self, graph: Optional[GraphLike] = None,
                       index: Optional[LandmarkIndex] = None, *,
                       warm: bool = True) -> EpochRollover:
        """Prepare the next epoch's generation beside the serving one.

        Pins a fresh snapshot of *graph* (default: the graph this
        platform was built from), homes *index* (default: rebuild the
        current landmark set against the fresh snapshot with the same
        parameters), builds a full set of replica workers in the
        ``warming`` state, and — unless ``warm=False`` — warms them
        immediately. The serving generation is untouched: requests keep
        landing on the old epoch, and once the live graph has moved on
        they are counted in ``shard.rollover.stale_served_total``
        instead of raising :class:`~repro.errors.StaleSnapshotError`.
        Call :meth:`EpochRollover.flip` (or use :meth:`rollover`) to
        switch.

        Raises:
            ConfigurationError: a rollover is already in progress, or
                the platform was built from a bare snapshot and no
                *graph* was passed.
        """
        if self._rollover is not None:
            raise ConfigurationError(
                f"a rollover to epoch {self._rollover.epoch} is already "
                f"in progress; flip or abandon it first")
        source = graph if graph is not None else self._source
        if source is None:
            raise ConfigurationError(
                "no graph to roll over to: pass graph= explicitly")
        with _obs.span("shard.rollover.prepare") as _sp:
            snapshot = as_snapshot(source)
            if index is None:
                index = self._rebuild_index(snapshot)
            router = ShardRouter(snapshot, self._num_shards)
            replica_sets = self._build_replica_sets(
                snapshot, router, index, self.replicas, ready=False)
            generation = self._assemble_generation(
                snapshot, router, replica_sets, index)
            self._apply_health(generation)
            if _sp:
                _sp.set(from_epoch=self.epoch, to_epoch=snapshot.epoch,
                        replicas=self.replicas)
        self._rollover = EpochRollover(self, generation)
        _obs.count("shard.rollover.started_total")
        _obs.gauge("shard.rollover.in_progress", 1.0)
        if warm:
            self._rollover.warm()
        return self._rollover

    def rollover(self, graph: Optional[GraphLike] = None,
                 index: Optional[LandmarkIndex] = None) -> int:
        """Warm the next epoch beside the old one, then flip atomically.

        Convenience wrapper over :meth:`begin_rollover` +
        :meth:`EpochRollover.flip`; returns the new serving epoch.
        """
        return self.begin_rollover(graph, index).flip()

    def abandon_rollover(self) -> None:
        """Discard a pending rollover without flipping (chaos escape)."""
        if self._rollover is not None:
            self._rollover = None
            _obs.count("shard.rollover.abandoned_total")
            _obs.gauge("shard.rollover.in_progress", 0.0)

    def _rebuild_index(self, snapshot: GraphSnapshot) -> LandmarkIndex:
        current = self._generation.index
        landmarks = sorted(current.landmarks)
        topics = sorted({topic for landmark in landmarks
                         for topic in current.topics_of(landmark)})
        return LandmarkIndex.build(
            snapshot, landmarks, topics, self._similarity,
            params=self.params, landmark_params=self.landmark_params,
            authority=snapshot.authority())

    # ------------------------------------------------------------------
    def _check_epochs(self, generation: _Generation,
                      allow_stale: bool) -> None:
        draining = generation is not self._generation
        if draining:
            # An in-flight request finishing against a retired (or
            # still-warming) generation: the whole point of the flip
            # discipline is that it completes on the epoch it started.
            _obs.count("shard.rollover.drained_total")
        elif self._rollover is not None:
            # Zero-downtime window: the graph may already be ahead of
            # the pinned epoch, but the next generation is warming —
            # keep serving the old epoch instead of failing requests.
            if generation.snapshot.is_stale:
                _obs.count("shard.rollover.stale_served_total")
        else:
            generation.snapshot.ensure_fresh(allow_stale)
        for replica_set in generation.replica_sets:
            for worker in replica_set.replicas:
                if (worker.epoch != generation.snapshot.epoch
                        and not allow_stale):
                    raise StaleSnapshotError(worker.epoch,
                                             generation.snapshot.epoch)

    def _down_shards(self, generation: _Generation) -> Set[int]:
        return {replica_set.spec.shard_id
                for replica_set in generation.replica_sets
                if replica_set.all_down}

    def _fetch_replicated(self, replica_set: ReplicaSet, landmark: int,
                          topic: str, clock: _RequestClock
                          ) -> Optional[LandmarkVectors]:
        """Replica-aware fetch: retries, failover, hedging.

        Walks the live-replica chain in deterministic order; each
        replica gets the full retry budget, and each attempt may hedge
        to the next live replica. ``None`` means the whole replica set
        is unreachable for this request.
        """
        live = replica_set.live()
        for position, replica in enumerate(live):
            backup = (live[position + 1]
                      if self.hedge and position + 1 < len(live) else None)
            for attempt in range(1, self.max_retries + 2):
                try:
                    return self.channel.hedged_fetch(
                        replica, backup, landmark, topic, clock, attempt)
                except ChannelError:
                    _obs.count("shard.retries_total")
                except ShardDownError:
                    break
            if position + 1 < len(live):
                _obs.count("shard.replica.failover_total")
        return None

    # ------------------------------------------------------------------
    def recommend(self, user: int, topic: str, top_n: int = 10, *,
                  allow_stale: bool = False,
                  depth: Optional[int] = None,
                  deadline_ms: Optional[float] = None,
                  ) -> RecommendationResponse:
        """Top-n suggestions via scatter-gather over the shards."""
        request = RecommendationRequest(
            user=user, topic=topic, top_n=top_n, allow_stale=allow_stale,
            depth=depth, deadline_ms=deadline_ms)
        return self.serve(request)

    def serve(self, request: RecommendationRequest) -> RecommendationResponse:
        """Execute one :class:`RecommendationRequest` end to end.

        The serving generation is captured once, here — everything the
        request touches (router, replicas, landmark lists) stays pinned
        to that epoch even if a rollover flips mid-request.

        Raises:
            StaleSnapshotError: epoch mismatch, no rollover in
                progress, and ``allow_stale`` unset.
            ShardDownError: every replica of the *home* shard is down.
            NodeNotFoundError: unknown user.
        """
        return self._serve_on(self._generation, request)

    def _serve_on(self, generation: _Generation,
                  request: RecommendationRequest) -> RecommendationResponse:
        self._check_epochs(generation, request.allow_stale)
        home_id = generation.router.route(
            generation.router.shard_of(request.user)).shard_id
        home_set = generation.replica_sets[home_id]
        home = home_set.primary()
        if home is None:
            raise ShardDownError(home_id)

        exploration_depth = (request.depth if request.depth is not None
                             else self.landmark_params.query_depth)
        budget = (request.deadline_ms if request.deadline_ms is not None
                  else self.deadline_ms)
        clock = _RequestClock(budget)
        down = self._down_shards(generation)
        degraded = bool(down)
        unreachable: Set[int] = set()
        hedges_before = self.channel.hedges_sent

        home.requests_total += 1
        _obs.count("shard.requests_total")
        with _obs.span("shard.serve") as _sp:
            if _sp:
                _sp.set(user=request.user, topic=request.topic,
                        home=home_id, shards=self.num_shards,
                        replica=home.replica_id,
                        epoch=generation.snapshot.epoch)
            state, stats = self._explore(
                generation, request, home, exploration_depth, down)
            combined, cost_parts, degraded = self._compose(
                generation, request, state, home_id, exploration_depth,
                clock, down, unreachable, degraded)
            ranked = self._merge(generation, request, home, combined,
                                 down | unreachable)
            hedged = self.channel.hedges_sent > hedges_before
            if _sp:
                _sp.set(degraded=degraded, returned=len(ranked),
                        elapsed_ms=clock.elapsed_ms, hedged=hedged)

        if degraded:
            _obs.count("shard.degraded_total")
        local, remote, shipped = cost_parts
        cost = QueryCost(propagation=stats, remote_landmarks=remote,
                         local_landmarks=local, entries_transferred=shipped)
        return response_from_pairs(
            request, ranked, engine="sharded",
            snapshot_epoch=generation.snapshot.epoch, degraded=degraded,
            cost=cost, served_epoch=generation.snapshot.epoch,
            hedged=hedged)

    # ------------------------------------------------------------------
    def _explore(self, generation: _Generation,
                 request: RecommendationRequest, home: ShardWorker,
                 exploration_depth: int, down: Set[int]):
        """Depth-k exploration from the home shard, landmark-absorbed.

        Down shards' nodes are added to the absorbing set: mass still
        *reaches* them (computing an edge only reads the sender's row)
        but the walk never expands from them, so no down-shard row is
        ever read.
        """
        absorbing = generation.landmark_set
        if down:
            lost: Set[int] = set()
            for shard_id in down:
                lost.update(
                    generation.replica_sets[shard_id].replicas[0].node_ids)
            absorbing = frozenset(absorbing | lost)
        with _obs.span("shard.explore") as _sp:
            state, stats = distributed_single_source_scores(
                generation.view, generation.assignment, request.user,
                [request.topic], self._similarity, authority=home.authority,
                params=self.params, max_depth=exploration_depth,
                absorbing=absorbing)
            if _sp:
                _sp.set(depth=exploration_depth,
                        supersteps=stats.supersteps,
                        remote_messages=stats.remote_messages)
        return state, stats

    def _compose(self, generation: _Generation,
                 request: RecommendationRequest, state, home_id: int,
                 exploration_depth: int, clock: _RequestClock,
                 down: Set[int], unreachable: Set[int], degraded: bool):
        """Proposition-4 composition, fetching remote lists as needed.

        Walks landmarks in global sorted order — the float accumulation
        order of the single-machine recommender — skipping landmarks
        homed on down or unreachable shards and every remote landmark
        after the deadline is hit; the gathered landmark vectors are
        then composed in one concatenated scatter-add.
        """
        user, topic = request.user, request.topic
        local = remote = shipped = 0
        deadline_hit = False
        home_set = generation.replica_sets[home_id]
        with _obs.span("shard.compose") as _sp:
            hits: List[Tuple[float, float, LandmarkVectors]] = []
            for landmark in generation.sorted_landmarks:
                if landmark == user and exploration_depth > 0:
                    continue
                topo_ab = state.topo_alphabeta.get(landmark, 0.0)
                if topo_ab <= 0.0:
                    continue
                owner = generation.router.shard_of(landmark)
                if owner == home_id:
                    primary = home_set.primary()
                    assert primary is not None  # home checked in serve
                    vectors = primary.landmark_vectors(landmark, topic)
                    local += 1
                else:
                    if owner in down or owner in unreachable or deadline_hit:
                        degraded = True
                        continue
                    try:
                        vectors = self._fetch_replicated(
                            generation.replica_sets[owner], landmark, topic,
                            clock)
                    except DeadlineExceededError:
                        _obs.count("shard.deadline_exceeded_total")
                        deadline_hit = True
                        degraded = True
                        continue
                    if vectors is None:
                        unreachable.add(owner)
                        degraded = True
                        continue
                    remote += 1
                    shipped += len(vectors)
                    _obs.count("shard.remote_fetches_total")
                hits.append((state.score(landmark, topic), topo_ab, vectors))
            combined = compose_landmark_contributions(
                generation.snapshot, state.scores.get(topic, {}), hits, user)
            if _sp:
                _sp.set(local_landmarks=local, remote_landmarks=remote,
                        entries=shipped, candidates=len(combined))
        return combined, (local, remote, shipped), degraded

    def _merge(self, generation: _Generation,
               request: RecommendationRequest, home: ShardWorker,
               combined: Dict[int, float],
               lost: Set[int]) -> List[Tuple[int, float]]:
        """Merge per-shard top-n partial rankings into the final top-n.

        Each healthy shard reduces its owned candidates to a local
        top-n; the gather side merges the partials. A candidate in the
        global top-n ranks at least as high among its own shard's
        candidates, so every global winner survives its shard's cut —
        the merged result equals the unsharded ranking bitwise.
        Candidates owned by down or unreachable shards have no shard to
        answer for them and drop out (the degraded path).
        """
        excluded = {request.user}
        excluded.update(home.out_neighbors(request.user))
        with _obs.span("shard.merge") as _sp:
            partials: Dict[int, TopK] = {}
            for node, value in combined.items():
                if node in excluded or value <= 0.0:
                    continue
                owner = generation.router.shard_of(node)
                if owner in lost:
                    continue
                per_shard = partials.get(owner)
                if per_shard is None:
                    per_shard = partials[owner] = TopK(request.top_n)
                per_shard.set(node, value)
            gathered: TopK = TopK(request.top_n)
            for owner in sorted(partials):
                for node, value in partials[owner].best():
                    gathered.set(node, value)
            ranked = gathered.best()
            if _sp:
                _sp.set(shards_answering=len(partials),
                        returned=len(ranked))
        return ranked
