"""A map over contiguous chunks, each after the first solved in a forked worker.

Chunks start at the multiples of MIN_CHUNK nearest an even split, where a
chained fn restarts.  A worker solves its whole chunk before it writes, so
it never waits on the pipe while it computes, then sends frames of
MIN_CHUNK results (the last may be shorter): a 4-byte little-endian length
and a marshal.dumps (exact for complex, float and bool), read one by one."""

import marshal
import os
import signal
import threading
from contextlib import suppress

# A split's fixed cost is about 3 ms (a no-op split of 1,024 items: 2.5-3.7 ms, medians
# of 30, in a 28 MB process with six 4,096-sample curves, on 2 CPUs); a 53-bit chunk of
# 512 samples took 5-19 ms on one CPU (k6 49-60 ms), so a second one saves 3-9 ms or more.
MIN_CHUNK = 512


def chunk_count(cpus, n):
    """At most one chunk per CPU and one per MIN_CHUNK of the n items."""
    return max(1, min(cpus, n // MIN_CHUNK))


def _read_part(f, n):
    """The n results a worker sent on f, or None unless f holds exactly their
    frames, each whole and of MIN_CHUNK results but the last, and then ends."""
    part = []
    with suppress(EOFError, ValueError, TypeError):  # cut, bad marshal data, not a list
        while len(part) < n:
            size = int.from_bytes(f.read(4), "little")
            got = marshal.loads(f.read(size))  # a cut prefix or body raises EOFError
            if len(got) != min(MIN_CHUNK, n - len(part)):
                return None
            part += got
        return None if f.read(1) else part
    return None


def forkmap(fn, items):
    """[fn(x) for x in items], bit for bit where fn(x) depends on x and the
    items before it back to a multiple of MIN_CHUNK.  The caller solves the
    first chunk, then any whose worker failed, died, exited nonzero or sent
    other than its frames, so exceptions keep the loop's order; and all where
    os.fork is missing or raises OSError, or beside other threads.  Workers
    are reaped, and killed first on an error."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = chunk_count(cpus, len(items)) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    cut = [(2 * len(items) * i // k + MIN_CHUNK) // (2 * MIN_CHUNK) * MIN_CHUNK for i in range(k)]
    chunks = [items[a:b] for a, b in zip(cut, cut[1:] + [len(items)])]
    workers = {}  # chunk index -> (pid, read end of its pipe)
    try:
        for i in range(1, k):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r), os.close(w)
                break
            if not pid:  # the worker leaves only here, with status 0 once all is written
                code = 1
                try:
                    os.close(r)
                    part = [fn(x) for x in chunks[i]]
                    with open(w, "wb") as f:
                        for j in range(0, len(part), MIN_CHUNK):
                            frame = marshal.dumps(part[j:j + MIN_CHUNK])
                            f.write(len(frame).to_bytes(4, "little"))
                            f.write(frame)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            workers[i] = pid, open(r, "rb")
        out = [fn(x) for x in chunks[0]]
        for i, chunk in enumerate(chunks[1:], 1):
            part = None
            if i in workers:
                with workers[i][1] as f:
                    part = _read_part(f, len(chunk))
                if os.waitpid(workers.pop(i)[0], 0)[1]:
                    part = None
            out += part if part is not None else [fn(x) for x in chunk]
        return out
    finally:
        for pid, f in workers.values():
            os.kill(pid, signal.SIGKILL)
            f.close()
            os.waitpid(pid, 0)
