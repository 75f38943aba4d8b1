"""Context-manager spans with parent links and wall-clock timing.

A :class:`Span` measures one stage of work with
:func:`time.perf_counter` (via :mod:`repro.obs.clock`) and carries
free-form attributes (``depth``, ``landmarks_hit``, ``frontier_size``,
…). Spans nest: entering a span while another is active on the same
thread links it as a child, so one landmark recommendation (dict
query engine) produces a tree like::

    approx.recommend
      approx.query
        approx.explore
          exact.single_source
            exact.iteration × k
        approx.compose
      approx.rank

The tracer keeps one active-span stack **per thread** (the dict engine
fans landmark builds out over a thread pool), and completed root spans
are collected under a lock, so concurrent builds trace correctly.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Optional

from .clock import now


class Span:
    """One timed stage. Use as a context manager via :meth:`Tracer.span`.

    Truthiness is part of the API: a real span is truthy while the
    disabled-mode :data:`repro.obs.runtime.NOOP_SPAN` is falsy, so hot
    paths can guard attribute computation with ``if span: span.set(...)``
    and pay nothing when observability is off.
    """

    __slots__ = ("name", "attributes", "parent", "children",
                 "start", "end", "_tracer")

    def __init__(self, name: str, tracer: "Tracer",
                 attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = (
            dict(attributes) if attributes is not None else {})
        self.parent: Optional[Span] = None
        self.children: List[Span] = []
        self.start: float = 0.0
        self.end: float = 0.0
        self._tracer = tracer

    def __bool__(self) -> bool:
        return True

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attrs)
        return self

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds (0.0 until the span has finished)."""
        if self.end == 0.0:
            return 0.0
        return self.end - self.start

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        self.start = now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = now()
        self._tracer._exit(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready tree rooted at this span."""
        return {
            "name": self.name,
            "seconds": self.elapsed,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, seconds={self.elapsed:.6f}, "
                f"children={len(self.children)})")


class Tracer:
    """Factory and collector of spans.

    ``finished`` holds completed *root* spans in completion order;
    child spans are reachable through their parents. The active-span
    stack is thread-local, so a span opened on a worker thread becomes
    a root of its own tree rather than a child of whatever the main
    thread happens to be doing.
    """

    def __init__(self) -> None:
        self.finished: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> Span:
        """Create a span; enter it with ``with`` to start the clock."""
        return Span(name, self, attributes=attrs)

    def current(self) -> Optional[Span]:
        """The innermost active span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # Called by Span.__enter__/__exit__ only.
    def _enter(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            span.parent = stack[-1]
            stack[-1].children.append(span)
        stack.append(span)

    def _exit(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # tolerate exotic exit orders rather than corrupt the stack
            try:
                stack.remove(span)
            except ValueError:
                pass
        if span.parent is None:
            with self._lock:
                self.finished.append(span)

    def iter_spans(self) -> Iterator[Span]:
        """Every finished span (roots and descendants), depth-first."""
        with self._lock:
            roots = list(self.finished)
        for root in roots:
            yield from root.walk()

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name stage stats over every finished span.

        Returns ``{name: {"calls", "seconds", "mean", "min", "max"}}``
        sorted by name — the "stages" section of the bench report.
        """
        stats: Dict[str, Dict[str, float]] = {}
        for span in self.iter_spans():
            entry = stats.get(span.name)
            seconds = span.elapsed
            if entry is None:
                stats[span.name] = {
                    "calls": 1, "seconds": seconds,
                    "min": seconds, "max": seconds,
                }
            else:
                entry["calls"] += 1
                entry["seconds"] += seconds
                entry["min"] = min(entry["min"], seconds)
                entry["max"] = max(entry["max"], seconds)
        for entry in stats.values():
            entry["mean"] = entry["seconds"] / entry["calls"]
        return {name: stats[name] for name in sorted(stats)}

    def reset(self) -> None:
        """Drop finished spans (active stacks are left alone)."""
        with self._lock:
            self.finished.clear()
