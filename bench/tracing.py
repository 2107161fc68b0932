"""In-memory spans recorded by the benchmark around its calls into mcgan.

A span has a name, a start, an end and the index of its parent span.  Spans
are appended to a list while the workload runs and summarised (or written out)
only when it ends.  Self time is a span's duration minus the part of it that
its direct children cover.

The untraced run uses :class:`NullTracer`, whose ``span`` returns one shared
no-op context manager, so end-to-end timings carry no tracing cost.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

_NULL = nullcontext()


class NullTracer:
    enabled = False

    def span(self, name: str):
        return _NULL


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    """Records ``[name, start, end, parent]`` for every span, in start order."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def durations(self, name: str) -> np.ndarray:
        return np.array([e - s for n, s, e, _ in self.spans if n == name])

    def total(self, name: str) -> float:
        return float(self.durations(name).sum())

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for _, s, e, parent in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out: dict[str, float] = {}
        for i, (name, s, e, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (e - s) - child[i]
        return out

    def to_json(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
        }
