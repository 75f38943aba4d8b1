"""Append-friendly delta overlay over a pinned :class:`GraphSnapshot`.

The ingest path (:mod:`repro.ingest`) cannot afford the write
amplification of the live-graph route — every
:class:`~repro.graph.labeled_graph.LabeledSocialGraph` mutation bumps
the epoch and forces a full CSR rebuild on the next
:meth:`~repro.graph.labeled_graph.LabeledSocialGraph.snapshot`. A
:class:`DeltaSnapshot` instead wraps a frozen base snapshot plus small
per-node add/remove logs:

- reads present the same ``GraphLike`` surface as the base (every
  graph-mirroring method of :class:`GraphSnapshot`, plus ``out_items``
  and ``authority()``), merging the base CSR row with the node's
  overlay log on access — untouched nodes read straight through to the
  base arrays;
- writes are :class:`~repro.graph.events.EdgeEvent` applications
  (follow / unfollow / retopic) with exactly the skip semantics of
  :class:`~repro.dynamics.stream.GraphStream` — an unfollow or retopic
  of a missing edge is a counted no-op;
- :meth:`DeltaSnapshot.compact` folds the logs into a **fresh base**
  :class:`GraphSnapshot`, bit-identical (arrays, interned labels,
  counts, epoch) to what a live graph replaying the same events would
  produce via ``graph.snapshot()``.

Epoch accounting mirrors the live graph exactly: every applied event
bumps the epoch once, plus once per endpoint node it implicitly
creates, so the compacted snapshot's epoch equals the live-graph
rebuild's epoch for the same event sequence (the property pinned by
``tests/graph/test_overlay.py``).
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterator, List, Mapping, Optional,
                    Set, Tuple)

import numpy as np

from ..errors import EdgeNotFoundError, NodeNotFoundError
from ..obs import runtime as _obs
from .events import EdgeEvent, EventKind
from .labeled_graph import TopicSet
from .snapshot import GraphSnapshot

_EMPTY: TopicSet = frozenset()


class DeltaSnapshot:
    """A base :class:`GraphSnapshot` plus per-node add/remove logs.

    Presents the shared ``GraphLike`` read surface, so the dict-based
    scorers (:func:`repro.core.exact.single_source_scores`, the
    authority index, traversals) read the overlay directly; vectorised
    consumers (the CSR engine, shard workers) take the
    :meth:`compact`-ed base instead.

    Args:
        base: The pinned snapshot the overlay grows from.
    """

    def __init__(self, base: GraphSnapshot) -> None:
        self.base = base
        #: Publisher profiles of nodes created by the overlay (events
        #: implicitly create endpoints with empty profiles, exactly
        #: like ``LabeledSocialGraph.add_edge``).
        self._new_profiles: Dict[int, TopicSet] = {}
        # Per-node overlay logs: target -> label, or None for a
        # tombstone superseding a base edge. One dict per touched
        # source (out) / target (in); untouched nodes have no entry.
        self._out_over: Dict[int, Dict[int, Optional[TopicSet]]] = {}
        self._in_over: Dict[int, Dict[int, Optional[TopicSet]]] = {}
        # Copy-on-write per-topic follower counts of touched targets.
        self._counts_over: Dict[int, Dict[str, int]] = {}
        self._num_edges = base.num_edges
        self._epoch = base.epoch
        self._max_cache: Optional[Dict[str, int]] = None
        self._authority = None
        self._csr_cache: Optional[GraphSnapshot] = None
        #: Events applied (mutating) / skipped (missing-edge no-ops).
        self.events_applied = 0
        self.events_skipped = 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def apply(self, event: EdgeEvent) -> bool:
        """Apply one event to the overlay; ``False`` for no-op skips.

        Mirrors :meth:`repro.dynamics.stream.GraphStream.apply`: a
        follow of an existing edge relabels it; an unfollow or retopic
        of a missing edge is skipped.
        """
        if event.kind is EventKind.FOLLOW:
            self._add_edge(event.source, event.target,
                           frozenset(event.topics))
        elif event.kind is EventKind.RETOPIC:
            if self._edge_label(event.source, event.target) is None:
                self.events_skipped += 1
                return False
            self._add_edge(event.source, event.target,
                           frozenset(event.topics))
        else:
            if self._edge_label(event.source, event.target) is None:
                self.events_skipped += 1
                return False
            self._remove_edge(event.source, event.target)
        self.events_applied += 1
        _obs.count("graph.overlay_events_total")
        return True

    def _ensure_node(self, node: int) -> None:
        if node not in self.base.position and node not in self._new_profiles:
            self._new_profiles[node] = _EMPTY
            self._counts_over[node] = {}
            self._epoch += 1  # LabeledSocialGraph.add_node bumps once

    def _add_edge(self, source: int, target: int, label: TopicSet) -> None:
        if source == target:
            raise ValueError(f"self-loop on node {source} is not allowed")
        self._ensure_node(source)
        self._ensure_node(target)
        previous = self._edge_label(source, target)
        if previous is None:
            self._num_edges += 1
        else:
            self._retract_counts(target, previous)
        self._out_over.setdefault(source, {})[target] = label
        self._in_over.setdefault(target, {})[source] = label
        counts = self._counts_of(target)
        for topic in sorted(label):
            counts[topic] = counts.get(topic, 0) + 1
        self._touch()

    def _remove_edge(self, source: int, target: int) -> None:
        label = self._edge_label(source, target)
        if label is None:
            raise EdgeNotFoundError(source, target)
        self._out_over.setdefault(source, {})[target] = None
        self._in_over.setdefault(target, {})[source] = None
        self._retract_counts(target, label)
        self._num_edges -= 1
        self._touch()

    def _retract_counts(self, target: int, label: TopicSet) -> None:
        counts = self._counts_of(target)
        for topic in label:
            remaining = counts[topic] - 1
            if remaining:
                counts[topic] = remaining
            else:
                del counts[topic]

    def _counts_of(self, target: int) -> Dict[str, int]:
        counts = self._counts_over.get(target)
        if counts is None:
            if target in self.base.position:
                counts = dict(self.base.follower_topic_counts(target))
            else:
                counts = {}
            self._counts_over[target] = counts
        return counts

    def _touch(self) -> None:
        self._epoch += 1
        self._max_cache = None
        self._authority = None

    # ------------------------------------------------------------------
    # Overlay-aware row merging
    # ------------------------------------------------------------------
    def _edge_label(self, source: int, target: int) -> Optional[TopicSet]:
        over = self._out_over.get(source)
        if over is not None and target in over:
            return over[target]
        if source in self._new_profiles or source not in self.base.position:
            return None
        return self.base.out_neighbors(source).get(target)

    def _merged_row(self, node: int, over: Dict[int, Dict[int,
                    Optional[TopicSet]]], base_row) -> Dict[int, TopicSet]:
        if node in self._new_profiles:
            merged: Dict[int, TopicSet] = {}
        else:
            merged = dict(base_row(node))
        log = over.get(node)
        if log:
            for other, label in log.items():
                if label is None:
                    merged.pop(other, None)
                else:
                    merged[other] = label
        return merged

    def _require_node(self, node: int) -> None:
        if node not in self.base.position and node not in self._new_profiles:
            raise NodeNotFoundError(node)

    # ------------------------------------------------------------------
    # GraphLike read surface
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Epoch the overlay has advanced to (base epoch + mutations)."""
        return self._epoch

    @property
    def is_stale(self) -> bool:
        """An overlay is its own source of truth — never stale."""
        return False

    def ensure_fresh(self, allow_stale: bool = False) -> "DeltaSnapshot":
        """Overlays carry their own epoch; always fresh by definition."""
        return self

    @property
    def overlay_edges(self) -> int:
        """Total log entries (adds + tombstones) across all nodes."""
        return (sum(len(log) for log in self._out_over.values())  # repro: ignore[R2] -- integer cardinalities; addition is exact in any order
                + len(self._new_profiles))

    @property
    def num_nodes(self) -> int:
        """Number of accounts (base plus overlay-created)."""
        return self.base.num_nodes + len(self._new_profiles)

    @property
    def num_edges(self) -> int:
        """Number of follow edges after the logs."""
        return self._num_edges

    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, node: int) -> bool:
        return node in self.base.position or node in self._new_profiles

    def nodes(self) -> Iterator[int]:
        """Iterate over every account id (ascending)."""
        if not self._new_profiles:
            return iter(self.base.node_ids)
        merged = sorted(set(self.base.node_ids) | set(self._new_profiles))
        return iter(merged)

    def edges(self) -> Iterator[Tuple[int, int, TopicSet]]:
        """Yield every edge as ``(source, target, topics)``."""
        for source in self.nodes():
            for target, label in self.out_items(source):
                yield source, target, label

    def has_edge(self, source: int, target: int) -> bool:
        """Whether *source* follows *target* after the logs."""
        return self._edge_label(source, target) is not None

    def node_topics(self, node: int) -> TopicSet:
        """Publisher profile of *node*."""
        profile = self._new_profiles.get(node)
        if profile is not None:
            return profile
        return self.base.node_topics(node)

    def edge_topics(self, source: int, target: int) -> TopicSet:
        """Topic labels of the edge *source* → *target*."""
        label = self._edge_label(source, target)
        if label is None:
            raise EdgeNotFoundError(source, target)
        return label

    def out_neighbors(self, node: int) -> Mapping[int, TopicSet]:
        """Accounts *node* follows, mapped to the edge labels."""
        self._require_node(node)
        return self._merged_row(node, self._out_over,
                                self.base.out_neighbors)

    def in_neighbors(self, node: int) -> Mapping[int, TopicSet]:
        """Followers of *node* (Γ_node), mapped to the edge labels."""
        self._require_node(node)
        return self._merged_row(node, self._in_over, self.base.in_neighbors)

    def followers(self, node: int) -> Mapping[int, TopicSet]:
        """Alias for :meth:`in_neighbors` matching the paper's Γu."""
        return self.in_neighbors(node)

    def out_items(self, node: int) -> list:
        """``(neighbor_id, label)`` pairs of *node*, ascending by id.

        Untouched base nodes return the base's cached list unchanged;
        touched nodes merge their log into a freshly sorted list.
        """
        if node not in self._out_over and node not in self._new_profiles:
            return self.base.out_items(node)
        merged = self.out_neighbors(node)
        return sorted(merged.items())

    def out_degree(self, node: int) -> int:
        """Number of accounts *node* follows."""
        if node not in self._out_over and node not in self._new_profiles:
            return self.base.out_degree(node)
        return len(self.out_neighbors(node))

    def in_degree(self, node: int) -> int:
        """Number of followers of *node*."""
        if node not in self._in_over and node not in self._new_profiles:
            return self.base.in_degree(node)
        return len(self.in_neighbors(node))

    def follower_count(self, node: int) -> int:
        """``|Γu|`` — total number of followers of *node*."""
        return self.in_degree(node)

    def follower_count_on(self, node: int, topic: str) -> int:
        """``|Γu(t)|`` — followers of *node* whose edge carries *topic*."""
        counts = self._counts_over.get(node)
        if counts is not None:
            return counts.get(topic, 0)
        return self.base.follower_count_on(node, topic)

    def follower_topic_counts(self, node: int) -> Mapping[str, int]:
        """All per-topic follower counts of *node* (zero counts omitted)."""
        counts = self._counts_over.get(node)
        if counts is not None:
            return counts
        return self.base.follower_topic_counts(node)

    def max_followers_on(self, topic: str) -> int:
        """``max_v |Γv(t)|`` — recomputed lazily after overlay writes."""
        cache = self._max_cache
        if cache is None:
            cache = {}
            for index, node in enumerate(self.base.node_ids):
                counts = self._counts_over.get(node)
                if counts is None:
                    counts = self.base._follower_counts[index]
                for t, count in counts.items():
                    if count > cache.get(t, 0):
                        cache[t] = count
            for node in self._new_profiles:
                for t, count in self._counts_over.get(node, {}).items():
                    if count > cache.get(t, 0):
                        cache[t] = count
            self._max_cache = cache
        return cache.get(topic, 0)

    def topics(self) -> FrozenSet[str]:
        """The set of topics appearing on any node or edge."""
        seen = set(self.base.topics())
        for log in self._out_over.values():
            for label in log.values():
                if label:
                    seen |= label
        return frozenset(seen)

    # ------------------------------------------------------------------
    # CSR view — lets the batched engines bind to an overlay directly
    # ------------------------------------------------------------------
    def csr_view(self) -> GraphSnapshot:
        """An epoch-cached compaction serving the array attributes.

        :class:`~repro.core.fast.SparseEngine` binds to CSR arrays at
        construction; the properties below delegate to this view so
        ``SparseEngine(overlay)`` works unchanged. The view is rebuilt
        lazily after each applied event — construct engines *after*
        the events they should observe.
        """
        cache = self._csr_cache
        if cache is None or cache.epoch != self._epoch:
            cache = self.compact()
            self._csr_cache = cache
        return cache

    @property
    def node_ids(self):
        """Node ids in snapshot order (see :class:`GraphSnapshot`)."""
        return self.csr_view().node_ids

    @property
    def position(self):
        """node id → dense index of the current CSR view."""
        return self.csr_view().position

    @property
    def out_indptr(self):
        return self.csr_view().out_indptr

    @property
    def out_indices(self):
        return self.csr_view().out_indices

    @property
    def out_label_ids(self):
        return self.csr_view().out_label_ids

    @property
    def in_indptr(self):
        return self.csr_view().in_indptr

    @property
    def in_indices(self):
        return self.csr_view().in_indices

    @property
    def in_label_ids(self):
        return self.csr_view().in_label_ids

    @property
    def labels(self):
        """Interned edge labels of the current CSR view."""
        return self.csr_view().labels

    @property
    def topic_ids(self):
        """topic → interned id of the current CSR view."""
        return self.csr_view().topic_ids

    def in_edge_rows(self):
        """Delegates to the CSR view (sparse-engine weight builder)."""
        return self.csr_view().in_edge_rows()

    def index_of(self, node: int) -> int:
        """Dense index of *node* in the current CSR view."""
        return self.csr_view().index_of(node)

    def node_at(self, index: int) -> int:
        """Node id at dense *index* of the current CSR view."""
        return self.csr_view().node_at(index)

    def authority(self):
        """A per-overlay-epoch :class:`~repro.core.scores.AuthorityIndex`.

        Dropped on every applied event, so scorers reading through the
        overlay never see pre-mutation authority values.
        """
        authority = self._authority
        if authority is None:
            from ..core.scores import AuthorityIndex
            authority = AuthorityIndex(self)
            self._authority = authority
        return authority

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> GraphSnapshot:
        """Fold the logs into a fresh base :class:`GraphSnapshot`.

        The result is constructed array-by-array (the
        :meth:`GraphSnapshot.from_store` pattern — no intermediate
        :class:`LabeledSocialGraph`) but is bit-identical to what a
        live graph replaying the same events would produce via
        ``graph.snapshot()``: same node order, same CSR arrays, same
        first-occurrence label interning (out rows then in rows, nodes
        ascending, neighbours ascending), same counts, same epoch.
        """
        with _obs.span("graph.overlay_compact") as _sp:
            snapshot = self._compact()
            if _sp:
                _sp.set(nodes=snapshot.num_nodes, edges=snapshot.num_edges,
                        overlay_edges=self.overlay_edges,
                        epoch=snapshot.epoch)
        _obs.count("graph.overlay_compactions_total")
        _obs.gauge("graph.snapshot_epoch", float(snapshot.epoch))
        return snapshot

    def _compact(self) -> GraphSnapshot:
        base = self.base
        if self._new_profiles:
            node_list: List[int] = sorted(
                set(base.node_ids) | set(self._new_profiles))
        else:
            node_list = list(base.node_ids)
        position = {node: i for i, node in enumerate(node_list)}

        label_ids: Dict[TopicSet, int] = {}
        labels: List[TopicSet] = []

        def intern(label: TopicSet) -> int:
            lid = label_ids.get(label)
            if lid is None:
                lid = len(labels)
                label_ids[label] = lid
                labels.append(label)
            return lid

        out_indptr = [0]
        out_indices: List[int] = []
        out_labels: List[int] = []
        for node in node_list:
            for neighbor, label in self.out_items(node):
                out_indices.append(position[neighbor])
                out_labels.append(intern(label))
            out_indptr.append(len(out_indices))

        in_indptr = [0]
        in_indices: List[int] = []
        in_labels: List[int] = []
        for node in node_list:
            row = self.in_neighbors(node)
            for follower in sorted(row):
                in_indices.append(position[follower])
                in_labels.append(intern(row[follower]))
            in_indptr.append(len(in_indices))

        profiles = tuple(self.node_topics(node) for node in node_list)
        follower_counts = tuple(
            dict(self.follower_topic_counts(node)) for node in node_list)

        vocabulary: Set[str] = set()
        for profile in profiles:
            vocabulary |= profile
        for label in labels:
            vocabulary |= label

        max_followers: Dict[str, int] = {}
        for counts in follower_counts:
            for topic, count in counts.items():
                if count > max_followers.get(topic, 0):
                    max_followers[topic] = count

        snapshot = GraphSnapshot.__new__(GraphSnapshot)
        snapshot.node_ids = tuple(node_list)
        snapshot.position = position
        snapshot.out_indptr = np.asarray(out_indptr, dtype=np.int64)
        snapshot.out_indices = np.asarray(out_indices, dtype=np.int64)
        snapshot.out_label_ids = np.asarray(out_labels, dtype=np.int64)
        snapshot.in_indptr = np.asarray(in_indptr, dtype=np.int64)
        snapshot.in_indices = np.asarray(in_indices, dtype=np.int64)
        snapshot.in_label_ids = np.asarray(in_labels, dtype=np.int64)
        snapshot.labels = tuple(labels)
        snapshot.topic_list = tuple(sorted(vocabulary))
        snapshot.topic_ids = {
            topic: i for i, topic in enumerate(snapshot.topic_list)}
        snapshot.profiles = profiles
        snapshot._follower_counts = follower_counts
        snapshot._max_followers = max_followers
        snapshot.epoch = self._epoch
        snapshot._graph_ref = None
        snapshot._store = None
        n = len(node_list)
        snapshot._out_items_cache = [None] * n
        snapshot._out_map_cache = [None] * n
        snapshot._in_map_cache = [None] * n
        snapshot._in_rows = None
        snapshot._authority = None
        return snapshot

    def __repr__(self) -> str:
        return (f"DeltaSnapshot(base_epoch={self.base.epoch}, "
                f"epoch={self._epoch}, overlay_edges={self.overlay_edges})")
