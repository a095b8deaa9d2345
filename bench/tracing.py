"""Spans recorded around the benchmark's own calls into the package.

A span is a name (``<layer>.<what>``), a start and end time, the span that
caused it and the operation it belongs to.  Spans stay in memory until the
run ends; ``self_times`` then gives each layer's self time: the span's
duration minus the part its child spans cover.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    parent: int | None
    op_id: int | None
    name: str
    start: float
    end: float = 0.0
    count: int = 1  # points or paths the call handled, for per-item costs

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _OpenSpan:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self):
        self.tracer._stack.append(self.span.span_id)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Span recorder; when disabled, ``span`` returns a shared no-op."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op_id: int | None = None

    def span(self, name: str, count: int = 1):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self._op_id, name, 0.0, count=count)
        self.spans.append(span)
        return _OpenSpan(self, span)

    def record(self, name: str, duration: float) -> None:
        """A span timed elsewhere, such as inside a child process."""
        if self.enabled:
            with self.span(name) as span:
                pass
            span.end = span.start + duration

    def op(self, op_id: int, name: str):
        """Root span of one workload operation; its children share ``op_id``."""
        self._op_id = op_id
        return self.span(name)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self, roots: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per layer, over the trees under ``roots``."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        todo = list(roots)
        while todo:
            s = todo.pop()
            kids = children.get(s.span_id, [])
            self_s[s.layer] += s.duration - sum(k.duration for k in kids)
            calls[s.layer] += 1
            todo.extend(kids)
        return dict(self_s), dict(calls)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.span_id, "parent": s.parent, "op": s.op_id, "name": s.name,
                    "start": s.start, "end": s.end, "count": s.count,
                }) + "\n")
