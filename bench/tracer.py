"""Spans recorded from the benchmark's side of each library call.

A span is (name, start, end, parent, op): the parent is the index of
the enclosing span (-1 for a root) and every span opened inside one
``op`` span carries that op's id.  Spans are kept in memory and written
out once, when the run ends.
"""
from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext

# Spans that group work rather than call into a layer; their self time
# is the part of a pass that no layer span covers.
GROUPING = ("pass", "op")

_NULL = nullcontext()


class NullTracer:
    """The untraced run: every span is the same do-nothing context."""

    def span(self, name: str):
        return _NULL


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        if name == "op":
            self._op, self._ops = self._ops, self._ops + 1
        op = self._op
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, op)
            if name == "op":
                self._op = -1

    def totals(self, duration) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time and self time (busy minus
        the time its child spans cover), each span lasting
        duration(start, end)."""
        took = [duration(start, end) for _, start, end, _, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent, _), span_took in zip(self.spans, took):
            if parent >= 0:
                child_time[parent] += span_took
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for (name, _, _, _, _), span_took, inner in zip(self.spans, took, child_time):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += span_took
            row["self_s"] += span_took - inner
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")


class AllocTracer:
    """Runs tracemalloc inside the spans of one name only and keeps the
    largest traced peak, so allocation tracing slows nothing else."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.peak_bytes = 0

    def span(self, name: str):
        return self._traced() if name == self.name else _NULL

    @contextmanager
    def _traced(self):
        tracemalloc.start()
        try:
            yield
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            self.peak_bytes = max(self.peak_bytes, peak)
