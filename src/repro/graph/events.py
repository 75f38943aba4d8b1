"""Follow/unfollow event model shared across layers.

The event dataclasses live in :mod:`repro.graph` — not in
:mod:`repro.dynamics`, which *produces* streams of them — because the
write-ahead log (:mod:`repro.landmarks.wal`) and the ingest path
(:mod:`repro.ingest`) also speak this vocabulary. Layering (``docs/ARCHITECTURE.md``,
``src/repro/analysis/layers.toml``) puts ``graph`` below both, so the
shared shape sits here and the churn *simulation* stays in
:mod:`repro.dynamics.events`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class EventKind(enum.Enum):
    """What happened to a follow edge."""

    FOLLOW = "follow"
    UNFOLLOW = "unfollow"
    #: Relabel an existing edge (the interest topics changed without
    #: the follow relationship itself changing).
    RETOPIC = "retopic"


@dataclass(frozen=True)
class EdgeEvent:
    """One timestamped follow-graph mutation.

    Attributes:
        kind: Follow, unfollow, or retopic.
        source: The follower.
        target: The followee.
        topics: Edge label (empty for unfollows; the replacement label
            for retopics).
        time: Logical timestamp (event index).
    """

    kind: EventKind
    source: int
    target: int
    topics: Tuple[str, ...]
    time: int

    @property
    def is_follow(self) -> bool:
        """Whether this event creates an edge."""
        return self.kind is EventKind.FOLLOW

    @property
    def is_retopic(self) -> bool:
        """Whether this event relabels an existing edge."""
        return self.kind is EventKind.RETOPIC
