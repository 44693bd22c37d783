"""Host-speed-corrected timing for the benchmark's end-to-end metrics.

The benchmark runs on a few vCPUs of a shared host whose speed changes
under it: the same 256-bit solve takes 1.0 s in one stretch of seconds and
2.0 s in the next, in the same process, with CPU time equal to wall time.
Such stretches last from seconds to minutes, longer than a run, so no
median or minimum taken within a run removes them.

HostClock samples the host's speed while the workload runs.  Every
PROBE_INTERVAL_S of wall time a SIGALRM handler runs a fixed probe (a
union-find walk over the connected spanning subgraphs of a 7-edge
multigraph, pure Python, written here and independent of relzeros) and
records how long it took.  An interval [t0, t1] of workload time is then
reported as

    (t1 - t0 - probe time inside it) * REFERENCE_PROBE_S / mean probe time

that is, the seconds it would have taken on a host running the probe in
REFERENCE_PROBE_S.  The probe's own time is taken out, so the sampling
costs the figures nothing but cache effects (~0.5% of the run).  The probe
resembles the workloads' code (recursion, small lists, dict updates), so a
slow stretch slows it by about as much as it slows them; the garbage
collector is paused while it runs so that its time does not depend on the
workload's heap.  Changes to relzeros do not change the probe, so a faster
program still reads faster.

Raw wall times are kept alongside and printed with every result.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.02
# About the median probe time on the reference host (2-vCPU x86-64 VM,
# Python 3.11.7); it only sets the scale of the corrected figures.
REFERENCE_PROBE_S = 100e-6
# Intervals that hold fewer probe samples than this (half a second of them)
# borrow the nearest ones, so one jittery sample cannot swing a short item.
MIN_SAMPLES = 25

_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1))


def probe():
    """Count connected spanning subgraphs of K4 plus one parallel edge, by size."""
    counts = {}

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def walk(i, parent, ncomp, k):
        if i == len(_EDGES):
            if ncomp == 1:
                counts[k] = counts.get(k, 0) + 1
            return
        walk(i + 1, parent, ncomp, k)
        u, v = _EDGES[i]
        ru, rv = find(parent, u), find(parent, v)
        if ru == rv:
            walk(i + 1, parent, ncomp, k + 1)
        else:
            child = list(parent)
            child[ru] = rv
            walk(i + 1, child, ncomp - 1, k + 1)

    walk(0, [0, 1, 2, 3], 4, 0)
    return counts


class HostClock:
    """Samples probe times on a timer; converts wall intervals to corrected seconds."""

    def __init__(self):
        self.starts = []  # perf_counter at each probe start, increasing
        self.durations = []
        self._cum = [0.0]  # prefix sums of durations
        self._previous = None

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe()
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(dt)
        self._cum.append(self._cum[-1] + dt)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def seconds(self, t0, t1):
        """Corrected seconds of the wall interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        net = (t1 - t0) - (self._cum[hi] - self._cum[lo])
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = min(len(self.starts), lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("no host-speed samples recorded")
        return net * REFERENCE_PROBE_S / ((self._cum[hi] - self._cum[lo]) / (hi - lo))

    def summary(self):
        if not self.durations:
            return {"probe_samples": 0}
        return {"probe_samples": len(self.durations),
                "probe_median_s": statistics.median(self.durations),
                "probe_min_s": min(self.durations)}
