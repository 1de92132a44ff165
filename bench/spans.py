"""In-memory span tracing around the benchmark's calls into mpseg.

A span is (name, trace id, parent span, start, end). The trace id is the
training step or evaluated scene the span belongs to; spans nest by
call, so a span's self time is its duration minus that of its direct
children. Garbage-collector pauses become ``python.gc`` spans under
whatever span was open when the collector ran. Counts are kept per
trace id at the same boundaries. Nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import gc
import json
import statistics
from collections import defaultdict
from time import perf_counter

_NULL = contextlib.nullcontext()


class NullTracer:
    """The untraced run: every hook is a no-op."""

    def span(self, name, trace_id=None):
        return _NULL

    def count(self, name, n=1):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class Tracer:
    """Records spans and counts while entered as a context manager.

    counted_calls lists (module, attribute, count name) triples: while
    the tracer is entered, each call to module.attribute adds one to that
    count for the current trace id. Entering also hooks the garbage
    collector; leaving removes both, so the tracer can be entered around
    each traced step and leave the steps between untouched.
    """

    def __init__(self, counted_calls=()):
        self.spans = []        # [name, trace_id, parent index, start, end]
        self.counts = defaultdict(int)   # (trace_id, name) -> count
        self._stack = []
        self._trace = None
        self._gc_start = None
        self._counted_calls = tuple(counted_calls)
        self._restore = []

    @contextlib.contextmanager
    def span(self, name, trace_id=None):
        prev_trace = self._trace
        if trace_id is not None:
            self._trace = trace_id
        rec = [name, self._trace, self._stack[-1] if self._stack else -1,
               perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self._stack.pop()
            self._trace = prev_trace

    def count(self, name, n=1):
        self.counts[(self._trace, name)] += n

    def _count_calls(self, module, attr, name):
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            self.counts[(self._trace, name)] += 1
            return original(*args, **kwargs)

        setattr(module, attr, counted)
        self._restore.append((module, attr, original))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.spans.append(["python.gc", self._trace,
                               self._stack[-1] if self._stack else -1,
                               self._gc_start, perf_counter()])
            self._gc_start = None

    def __enter__(self):
        for module, attr, name in self._counted_calls:
            self._count_calls(module, attr, name)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []
        return False

    # ------------------------------------------------------------------
    # summaries

    def self_ms(self) -> list:
        """Self time of every span, in ms, index-aligned with self.spans."""
        covered = [0.0] * len(self.spans)
        for _name, _trace, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [1e3 * (end - start - c)
                for (_n, _t, _p, start, end), c in zip(self.spans, covered)]

    def per_trace_ms(self, name, traces) -> list:
        """Total ms of spans called `name` in each trace id of `traces`
        that has at least one."""
        wanted = set(traces)
        total = defaultdict(float)
        for n, trace, _parent, start, end in self.spans:
            if n == name and trace in wanted:
                total[trace] += 1e3 * (end - start)
        return [total[t] for t in traces if t in total]

    def per_trace_count(self, name, traces) -> list:
        return [self.counts[(t, name)] for t in traces if (t, name) in self.counts]

    def write_jsonl(self, path):
        selfs = self.self_ms()
        with open(path, "w", encoding="utf-8") as fh:
            for (name, trace, parent, start, end), s in zip(self.spans, selfs):
                fh.write(json.dumps({"name": name, "trace": trace, "parent": parent,
                                     "start": start, "end": end,
                                     "self_ms": s}) + "\n")


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0
