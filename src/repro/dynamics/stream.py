"""Apply an event stream to a live graph."""

from __future__ import annotations

from typing import Iterable

from ..errors import EdgeNotFoundError
from ..graph.labeled_graph import LabeledSocialGraph
from .events import EdgeEvent, EventKind


class GraphStream:
    """Mutate a graph from :class:`EdgeEvent`s, counting skips.

    Example::

        stream = GraphStream(graph)
        stream.apply_all(simulate_churn(graph, 1000, seed=1))
    """

    def __init__(self, graph: LabeledSocialGraph) -> None:
        self.graph = graph
        self.applied = 0
        self.skipped = 0

    def apply(self, event: EdgeEvent) -> bool:
        """Apply one event; returns ``False`` for no-op events.

        A follow of an existing edge relabels it; an unfollow or
        retopic of a missing edge is skipped (streams may race with
        each other in callers' tests).
        """
        if event.is_follow:
            self.graph.add_edge(event.source, event.target, event.topics)
        elif event.kind is EventKind.RETOPIC:
            try:
                self.graph.set_edge_topics(event.source, event.target,
                                           event.topics)
            except EdgeNotFoundError:
                self.skipped += 1
                return False
        else:
            try:
                self.graph.remove_edge(event.source, event.target)
            except EdgeNotFoundError:
                self.skipped += 1
                return False
        self.applied += 1
        return True

    def apply_all(self, events: Iterable[EdgeEvent]) -> int:
        """Apply every event; returns the number actually applied."""
        before = self.applied
        for event in events:
            self.apply(event)
        return self.applied - before
