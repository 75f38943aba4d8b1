"""The unified public recommendation API.

Before this module every scorer exposed its own entry point with its
own shape: ``core.Recommender.recommend`` returned rich per-topic
items, the landmark and baseline recommenders returned bare
``(node, score)`` tuples, and the distributed service returned a
``(ranking, cost)`` pair. One serving tier cannot sit in front of five
shapes, so this module defines the one contract they all now share:

- :class:`RecommendationRequest` — what a caller asks for;
- :class:`Recommendation` — one ranked suggestion;
- :class:`RecommendationResponse` — the ordered answer plus serving
  metadata (engine, snapshot epoch, degradation flag, network cost);
- :class:`Recommender` — the structural protocol
  ``recommend(user, topic, top_n=..., *, allow_stale=False)`` that
  every scorer satisfies (asserted by ``tests/api/test_protocol.py``).

Legacy shapes did not disappear: a :class:`Recommendation` unpacks
like the old ``(node, score)`` tuple and a
:class:`RecommendationResponse` iterates, indexes, and measures like
the old ranked list, so pre-redesign call sites keep working. The old
*call* signatures (``query()``, keyword styles like
``candidates=``/``aggregation=``, SALSA's topic-less form) went
through a deprecation cycle as warning shims and have now been
**removed** — see the API-surface table in ``docs/ARCHITECTURE.md``
for the old → new mapping. Lint rule R9 (:mod:`repro.analysis`) keeps
tuple-returning ``recommend`` functions from growing back.

The module also hosts the two other cross-layer contracts:

- :class:`MaintenanceStats` — the frozen counters of the landmark
  maintainer in :mod:`repro.dynamics`;
- :class:`IngestEvent` / :class:`IngestResponse` — the request/answer
  pair of the live ingestion path (:mod:`repro.ingest`), mirroring the
  :class:`RecommendationRequest`/:class:`RecommendationResponse`
  pattern for graph *writes* instead of reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterator, List, Mapping,
                    Optional, Protocol, Sequence, Tuple, Union, overload,
                    runtime_checkable)

from .errors import ConfigurationError

if TYPE_CHECKING:  # deferred: api sits below graph in the layering
    from .graph.events import EdgeEvent

__all__ = [
    "RecommendationRequest",
    "Recommendation",
    "RecommendationResponse",
    "Recommender",
    "MaintenanceStats",
    "IngestEvent",
    "IngestResponse",
    "response_from_pairs",
]


@dataclass(frozen=True)
class RecommendationRequest:
    """One recommendation query, as routed between serving components.

    Attributes:
        user: The account to recommend to.
        topic: The query topic (Algorithm 2 is per-topic; scorers that
            are topic-blind, like SALSA, accept and ignore it).
        top_n: Number of suggestions wanted.
        allow_stale: Accept answers computed on a snapshot whose graph
            has since mutated instead of raising
            :class:`~repro.errors.StaleSnapshotError`.
        depth: Exploration-depth override for landmark-based scorers
            (``None`` = the index's ``query_depth``).
        deadline_ms: Simulated per-request deadline budget for
            distributed tiers (``None`` = the tier's default).
    """

    user: int
    topic: str
    top_n: int = 10
    allow_stale: bool = False
    depth: Optional[int] = None
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.top_n < 1:
            raise ConfigurationError(
                f"top_n must be >= 1, got {self.top_n}")
        if self.depth is not None and self.depth < 0:
            raise ConfigurationError(
                f"depth must be >= 0, got {self.depth}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be > 0, got {self.deadline_ms}")


@dataclass(frozen=True)
class Recommendation:
    """One recommended account.

    Unpacks like the pre-redesign ``(node, score)`` tuple
    (``node, score = rec`` and ``rec[0]``/``rec[1]`` both work), so
    ranked lists migrated to :class:`RecommendationResponse` stay
    drop-in compatible with tuple-consuming call sites.

    Attributes:
        node: The recommended account id.
        score: Combined recommendation score.
        per_topic: Optional breakdown ``topic → σ(u, node, t)``
            (populated by the exact recommender).
    """

    node: int
    score: float
    per_topic: Dict[str, float] = field(default_factory=dict)

    def __iter__(self) -> Iterator[Union[int, float]]:
        yield self.node
        yield self.score

    def __getitem__(self, index: int) -> Union[int, float]:
        return (self.node, self.score)[index]

    def as_pair(self) -> Tuple[int, float]:
        """The plain ``(node, score)`` tuple."""
        return (self.node, self.score)


@dataclass(frozen=True)
class RecommendationResponse:
    """The ordered answer to one :class:`RecommendationRequest`.

    Equality compares the *answer* — the ranked recommendations and the
    degradation flag — not serving provenance (engine name, snapshot
    epoch, cost, or the request), so parity tests can compare responses
    produced by different tiers directly.

    The response behaves like the ranked list the old entry points
    returned: iterating yields :class:`Recommendation` items (each
    unpackable as ``(node, score)``), ``len``/``[i]``/slicing work, and
    an empty response is falsy.

    Attributes:
        request: The request this answers.
        recommendations: Ranked suggestions, descending score, ties
            broken by ascending node id.
        engine: Which scorer produced it (``"exact"``, ``"approximate"``,
            ``"twitterrank"``, ``"salsa"``, ``"distributed"``,
            ``"sharded"``).
        snapshot_epoch: Epoch of the graph snapshot that was read.
        degraded: True when part of the serving tier was unreachable
            and the ranking may be missing contributions (sharded
            serving with a shard down).
        cost: Network-cost accounting for distributed tiers (a
            :class:`~repro.distributed.QueryCost`), ``None`` for
            single-machine scorers.
        served_epoch: Epoch of the generation that actually answered —
            during a zero-downtime rollover this can lag
            the live graph (the old generation keeps serving until the
            flip); ``None`` for single-machine scorers.
        hedged: True when at least one remote fetch of this request
            was hedged to a backup replica (sharded serving only).
    """

    request: RecommendationRequest = field(compare=False)
    recommendations: Tuple[Recommendation, ...] = ()
    engine: str = field(default="", compare=False)
    snapshot_epoch: Optional[int] = field(default=None, compare=False)
    degraded: bool = False
    cost: Optional[object] = field(default=None, compare=False)
    served_epoch: Optional[int] = field(default=None, compare=False)
    hedged: bool = field(default=False, compare=False)

    def __len__(self) -> int:
        return len(self.recommendations)

    def __iter__(self) -> Iterator[Recommendation]:
        return iter(self.recommendations)

    @overload
    def __getitem__(self, index: int) -> Recommendation: ...

    @overload
    def __getitem__(self, index: slice) -> List[Recommendation]: ...

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[Recommendation, List[Recommendation]]:
        if isinstance(index, slice):
            return list(self.recommendations[index])
        return self.recommendations[index]

    def pairs(self) -> List[Tuple[int, float]]:
        """The ranking as plain ``(node, score)`` tuples."""
        return [item.as_pair() for item in self.recommendations]

    def nodes(self) -> List[int]:
        """Just the ranked account ids."""
        return [item.node for item in self.recommendations]


@runtime_checkable
class Recommender(Protocol):
    """Structural protocol every recommendation entry point satisfies.

    Implementations may accept additional keyword-only parameters with
    defaults (``depth=``, ``exclude_followed=``), but the core call
    shape — positional ``user`` and ``topic``, keyword ``top_n`` and
    keyword-only ``allow_stale`` — must behave identically everywhere.
    """

    def recommend(self, user: int, topic: str, top_n: int = 10, *,
                  allow_stale: bool = False) -> RecommendationResponse:
        """Top-n suggestions for *user* on *topic*."""
        ...  # pragma: no cover - protocol body


@dataclass(frozen=True)
class MaintenanceStats:
    """Immutable accounting snapshot of the landmark maintainer.

    Returned by
    :attr:`~repro.dynamics.incremental.IncrementalMaintainer.stats`;
    each read is a frozen copy of the maintainer's private counters, so
    callers can diff snapshots across a churn window without the
    maintainer mutating them underneath.

    Attributes:
        events_seen: Graph mutations observed via ``on_event``.
        landmarks_rebuilt: Landmark re-propagations performed (one per
            landmark per refresh round).
        rebuild_rounds: Refresh rounds run (one per flush that had
            pending events).
        sources_propagated: Total propagation sources actually walked;
            one source per rebuilt landmark, so this equals
            ``landmarks_rebuilt``.
    """

    events_seen: int = 0
    landmarks_rebuilt: int = 0
    rebuild_rounds: int = 0
    sources_propagated: int = 0

    @property
    def rebuilds_per_event(self) -> float:
        """Average landmarks rebuilt per observed event."""
        if not self.events_seen:
            return 0.0
        return self.landmarks_rebuilt / self.events_seen


_INGEST_KINDS = ("follow", "unfollow", "retopic")


@dataclass(frozen=True)
class IngestEvent:
    """One follow-graph mutation submitted to the ingest path.

    The write-side twin of :class:`RecommendationRequest`: the wire
    shape clients hand to :class:`repro.ingest.IngestPipeline` (or the
    ``repro ingest`` CLI), converted internally to the
    :class:`~repro.graph.events.EdgeEvent` vocabulary.

    Attributes:
        kind: ``"follow"``, ``"unfollow"``, or ``"retopic"``.
        source: The follower.
        target: The followee.
        topics: Edge label (ignored for unfollows; the replacement
            label for retopics).
        time: Logical timestamp; defaults to submission order.
    """

    kind: str
    source: int
    target: int
    topics: Tuple[str, ...] = ()
    time: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _INGEST_KINDS:
            raise ConfigurationError(
                f"kind must be one of {_INGEST_KINDS}, got {self.kind!r}")
        if self.source == self.target:
            raise ConfigurationError(
                f"self-follow on node {self.source} is not allowed")

    def to_edge_event(self) -> "EdgeEvent":
        """The :class:`~repro.graph.events.EdgeEvent` equivalent."""
        from .graph.events import EdgeEvent, EventKind
        return EdgeEvent(kind=EventKind(self.kind), source=self.source,
                         target=self.target, topics=tuple(self.topics),
                         time=self.time)


@dataclass(frozen=True)
class IngestResponse:
    """The answer to one :class:`IngestEvent` submission.

    Equality compares the outcome (``applied``/``compacted``), not the
    epoch provenance, mirroring :class:`RecommendationResponse`.

    Attributes:
        event: The event this answers.
        applied: False when the event was a no-op (unfollow or retopic
            of an edge that does not exist).
        ingest_epoch: Overlay epoch after this event — what a reader of
            the delta overlay sees.
        servable_epoch: Epoch of the snapshot the serving tier answers
            queries from; lags ``ingest_epoch`` until the next
            compaction + rollover folds the overlay in.
        compacted: True when this event triggered a compaction (the
            returned ``servable_epoch`` is already the fresh base).
        pending_events: Overlay events not yet folded into a base.
    """

    event: IngestEvent = field(compare=False)
    applied: bool = True
    ingest_epoch: int = field(default=0, compare=False)
    servable_epoch: Optional[int] = field(default=None, compare=False)
    compacted: bool = False
    pending_events: int = field(default=0, compare=False)


def response_from_pairs(
    request: RecommendationRequest,
    pairs: Sequence[Tuple[int, float]],
    *,
    engine: str,
    snapshot_epoch: Optional[int] = None,
    degraded: bool = False,
    cost: Optional[object] = None,
    per_topic: Optional[Mapping[int, Dict[str, float]]] = None,
    served_epoch: Optional[int] = None,
    hedged: bool = False,
) -> RecommendationResponse:
    """Wrap an already-ranked ``(node, score)`` sequence in a response.

    The adapter every migrated scorer funnels through: *pairs* must
    already be sorted descending by score with ascending-node
    tie-break — this function asserts nothing and preserves order.
    """
    breakdown: Mapping[int, Dict[str, float]] = (
        per_topic if per_topic is not None else {})
    return RecommendationResponse(
        request=request,
        recommendations=tuple(
            Recommendation(node=node, score=score,
                           per_topic=breakdown.get(node, {}))
            for node, score in pairs),
        engine=engine,
        snapshot_epoch=snapshot_epoch,
        degraded=degraded,
        cost=cost,
        served_epoch=served_epoch,
        hedged=hedged,
    )
