"""In-memory span tracer that wraps the public callables of each layer.

The benchmark never edits the program: for a traced run it replaces
each layer's public callables (module functions, methods, classmethods)
with thin wrappers that record one span per call, restores the
originals afterwards, and turns the spans into per-layer metrics.

A span is ``(id, parent, name, start, end, self, request, phase)``.
Its self time is its duration minus the durations of its direct
children, so the self times of every span under a top-level call add
up to that call's time; whatever the wrapped callables do not cover is
left in the parent's self time and reported as "other". Spans under
one top-level call (one request, one submit) share its id as their
``request``.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Recorded span: (id, parent id, name, start, end, self time,
#: request id, phase).
Span = Tuple[int, int, str, float, float, float, int, str]


class Tracer:
    """Collects spans and work counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.phase = "setup"
        self.paused = False
        # Open spans: [id, name, start, child time].
        self._stack: List[list] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        """Add *amount* to a work counter (ignored while paused)."""
        if not self.paused:
            self.counts[name] += amount

    @contextlib.contextmanager
    def pause(self):
        """Record nothing inside (answer checks, oracles)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _call(self, name: str, function: Callable, args: tuple,
              kwargs: dict, before: Optional[Callable],
              after: Optional[Callable]) -> Any:
        if self.paused:
            return function(*args, **kwargs)
        token = before(self, args) if before is not None else None
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else -1
        request = self._stack[0][0] if self._stack else span_id
        frame = [span_id, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[2]
            if self._stack:
                self._stack[-1][3] += duration
            self.spans.append((span_id, parent, name, frame[2], end,
                               duration - frame[3], request, self.phase))
        if after is not None:
            after(self, args, result, token)
        return result

    # -- installation --------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(tracer, args)`` runs ahead of each call and its result
        is handed to ``after(tracer, args, result, token)`` when the
        call returns, so work counts come from the public arguments,
        attributes and return value.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self
        if isinstance(raw, classmethod):
            function = raw.__func__

            def bound(cls, *args, **kwargs):
                return tracer._call(name, function, (cls,) + args, kwargs,
                                    before, after)
            replacement: Any = classmethod(bound)
        else:
            function = raw

            def replacement(*args, **kwargs):
                return tracer._call(name, function, args, kwargs, before,
                                    after)
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every wrapped callable back."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- results -------------------------------------------------------
    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, total time, self time)."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, name, start, end, self_time, _, _ in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_time
        return {name: (int(row[0]), row[1], row[2])
                for name, row in out.items()}

    def top_level(self, names: Tuple[str, ...]) -> float:
        """Total time of spans in *names* not nested in another of them."""
        by_id = {span[0]: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span[2] not in names:
                continue
            parent = by_id.get(span[1])
            nested = False
            while parent is not None:
                if parent[2] in names:
                    nested = True
                    break
                parent = by_id.get(parent[1])
            if not nested:
                total += span[4] - span[3]
        return total

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span[0], "parent": span[1], "name": span[2],
                    "start": span[3], "end": span[4], "self": span[5],
                    "request": span[6], "phase": span[7]}) + "\n")
