"""In-memory spans and counters for the benchmark's traced passes.

A span records its name, start, end and the index of its enclosing span;
the pass id is attached when the spans are written out.  Spans are kept in
a list and leave the process only when the pass reports.  ``NULL`` is the
untraced stand-in: the same calls, recording nothing.
"""

import time


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, None]

    def __enter__(self):
        tr = self.tracer
        rec = self.record
        rec[3] = tr._stack[-1] if tr._stack else None
        tr._stack.append(len(tr.spans))
        tr.spans.append(rec)
        rec[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Spans as ``[name, start, end, parent_index]`` plus named counters."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    enabled = False
    _span = _NullSpan()

    def span(self, name):
        return self._span

    def count(self, name, n=1):
        pass


NULL = _NullTracer()


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own

