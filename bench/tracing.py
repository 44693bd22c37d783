"""Spans and counters recorded by the benchmark around calls into relzeros.

Spans live only here, in the benchmark: each wraps one call the benchmark
makes into a public relzeros function (or one of the benchmark's own
groupings, named ``bench.*``).  They are kept in memory and written as JSON
when the run ends.  With tracing off, ``call`` is a plain call and ``span``
and ``count`` record nothing, so the untraced passes that supply the
end-to-end metrics carry no tracing work.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Span and counter store for one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.enabled = False
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    @contextmanager
    def span(self, name, instance=None):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "instance": instance,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        except Exception as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def call(self, name, fn, *args):
        """fn(*args), recorded as span ``name`` when tracing is on."""
        if not self.enabled:
            return fn(*args)
        with self.span(name):
            return fn(*args)

    def count(self, name, value=1):
        if self.enabled:
            self.counters[name] += value

    def maximum(self, name, value):
        if self.enabled:
            self.counters[name] = max(self.counters[name], value)


def span_totals(spans):
    """name -> {calls, busy_s, self_s, errors} summed over closed spans.

    A span's self time is its duration minus the time its direct children
    cover; children never overlap because the benchmark is one thread.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals = {}
    for s in spans:
        t = totals.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
        d = s["end"] - s["start"]
        t["calls"] += 1
        t["busy_s"] += d
        t["self_s"] += d - child_time[s["id"]]
        t["errors"] += "error" in s
    return totals
