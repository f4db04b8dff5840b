"""Spans recorded by the benchmark around its calls into locc_lab.

Every call into the program goes through ``tracer.call(name, fn, ...)`` with
``name`` spelled ``module.function``, so that spans recorded inside the
program later line up with these. ``NullTracer`` is used in timed runs: its
``call`` is a plain call and it records nothing.
"""

import json
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

MB = 2.0**20
# Spans are timed on the process's CPU clock, as the timed runs are (see
# harness.Tally); the process is single-threaded, so spans still nest.
cpu_ns = time.process_time_ns


class NullTracer:
    """Tracing off: calls pass straight through."""

    def op(self, name):
        return nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, key, value):
        pass

    def peak(self, name, key, value):
        pass

    def trials(self, name, n):
        pass


@dataclass
class Span:
    span_id: int
    name: str
    op_id: int  # span id of the enclosing operation
    parent: int  # same as op_id for a call; -1 for an operation
    start_ns: int
    end_ns: int
    failed: bool


class Tracer:
    """Spans and counters, kept in memory until ``write``.

    With ``memory`` set, each call also records its tracemalloc peak above
    the memory traced when it started, as the ``peak_alloc_mb`` counter; the
    caller must have started tracemalloc, which slows allocation-heavy code,
    so times from such a tracer are not used.

    Only calls nest inside operations; the program records no spans of its
    own yet, so a call's self time is its whole duration.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.counters = {}  # (name, key) -> value
        self._op = -1

    @contextmanager
    def op(self, name):
        span = self._open(f"bench.{name}", -1)
        span.op_id = self._op = span.span_id
        try:
            yield
            span.failed = False
        finally:
            self._op = -1
            span.end_ns = cpu_ns()

    def call(self, name, fn, *args, **kwargs):
        span = self._open(name, self._op)
        if self.memory:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        try:
            out = fn(*args, **kwargs)
            span.failed = False
            return out
        finally:
            span.end_ns = cpu_ns()
            if self.memory:
                self.peak(name, "peak_alloc_mb", (tracemalloc.get_traced_memory()[1] - base) / MB)

    def add(self, name, key, value):
        """Sum a count of work done by the named call."""
        self.counters[name, key] = self.counters.get((name, key), 0) + value

    def peak(self, name, key, value):
        """Keep the largest value seen for the named call."""
        self.counters[name, key] = max(self.counters.get((name, key), value), value)

    def trials(self, name, n):
        """Count ``n`` MC trials run by the latest call, which is of ``name``,
        and that call's time as ``trial_ms``."""
        span = self.spans[-1]
        assert span.name == name, (span.name, name)
        self.add(name, "trials", n)
        self.add(name, "trial_ms", (span.end_ns - span.start_ns) / 1e6)

    def _open(self, name, parent):
        span = Span(len(self.spans), name, parent, parent, cpu_ns(), 0, True)
        self.spans.append(span)
        return span

    def functions(self):
        """Per call name: calls, failed, self_ms and the counters."""
        out = {}
        for s in self.spans:
            if s.parent == -1:
                continue
            f = out.setdefault(s.name, {"calls": 0, "failed": 0, "self_ms": 0.0})
            f["calls"] += 1
            f["failed"] += int(s.failed)
            f["self_ms"] += (s.end_ns - s.start_ns) / 1e6
        for (name, key), value in self.counters.items():
            out.setdefault(name, {})[key] = value
        return out

    def bench_self_ms(self):
        """Time inside operations not covered by calls: the verdict checks."""
        total = 0
        for s in self.spans:
            sign = 1 if s.parent == -1 else -1
            total += sign * (s.end_ns - s.start_ns)
        return total / 1e6

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")
