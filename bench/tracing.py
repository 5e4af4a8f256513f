"""In-memory spans around the library calls an operation makes.

A span records its name, wall-clock start and end, the process CPU time it
used (all threads), the index of its parent span, the operation it belongs
to and an optional amount of work (points evaluated).  Spans stay in a list
until the run ends; ``summary`` folds them into per-layer totals.
"""

import contextlib
import time
from collections import defaultdict


class NullTracer:
    """Calls straight through; the untraced run uses it."""

    enabled = False

    def call(self, name, fn, *args, work=0, **kwargs):
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def op(self, op_id, name):
        yield


class Tracer:
    """Records one span per wrapped call and one per operation."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op_id = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append({"name": name, "op": self._op_id,
                           "parent": parent, "start_ns": None,
                           "end_ns": None, "cpu_ns": None, "work": 0})
        self._stack.append(index)
        return index

    def _close(self, index, start, cpu0):
        end = time.perf_counter_ns()
        span = self.spans[index]
        span["start_ns"] = start
        span["end_ns"] = end
        span["cpu_ns"] = time.process_time_ns() - cpu0
        self._stack.pop()

    def call(self, name, fn, *args, work=0, **kwargs):
        index = self._open(name)
        self.spans[index]["work"] = work
        cpu0 = time.process_time_ns()
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index, start, cpu0)

    @contextlib.contextmanager
    def op(self, op_id, name):
        self._op_id = op_id
        index = self._open("op." + name)
        cpu0 = time.process_time_ns()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, start, cpu0)
            self._op_id = None


def summary(spans):
    """Per span name: calls, wall, self and CPU time in ms, work units.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap because a single thread
    makes every call.
    """
    child_ns = defaultdict(int)
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
    out = defaultdict(lambda: {"calls": 0, "wall_ms": 0.0, "self_ms": 0.0,
                               "cpu_ms": 0.0, "work": 0})
    for index, span in enumerate(spans):
        wall = span["end_ns"] - span["start_ns"]
        rec = out[span["name"]]
        rec["calls"] += 1
        rec["wall_ms"] += wall / 1e6
        rec["self_ms"] += (wall - child_ns[index]) / 1e6
        rec["cpu_ms"] += span["cpu_ns"] / 1e6
        rec["work"] += span["work"]
    for rec in out.values():
        rec["ms_per_call"] = rec["wall_ms"] / rec["calls"]
        rec["cpu_over_wall"] = rec["cpu_ms"] / rec["wall_ms"] \
            if rec["wall_ms"] > 0.0 else 0.0
    return dict(out)
