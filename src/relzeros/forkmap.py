"""A map over contiguous chunks, each after the first solved in a forked worker.

A worker solves its whole chunk before it writes, so it never waits on the
pipe while it computes.  Then it sends its results in frames of MIN_CHUNK
(the last one may be shorter), each a 4-byte little-endian length and one
marshal.dumps, which keeps complex, float and bool exact.  The caller reads
each frame whole and unmarshals it in C, so it holds one frame's bytes at
a time, never the whole payload."""

import marshal
import os
import signal
import threading
from contextlib import suppress

# A split's fixed cost is about 3 ms: a no-op split of 1,024 items took 2.5-3.7 ms
# (medians of 30) in a 28 MB process holding six 4,096-sample curves, on 2 CPUs,
# where a 53-bit chunk of 512 samples takes 5-19 ms on one CPU (49-60 ms for
# k6), so a second chunk of this size saves half of that, 3-9 ms or more.
MIN_CHUNK = 512


def chunk_count(cpus, n):
    """At most one chunk per CPU, each of at least MIN_CHUNK of the n items."""
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
    """[fn(x) for x in items], bit for bit.  The caller solves the first chunk,
    then any whose worker failed, died, exited nonzero or sent other than its
    frames, so exceptions keep the loop's order; and all where os.fork is
    missing or raises OSError, or beside other threads.  Workers are reaped,
    and killed first on an error."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = chunk_count(cpus, len(items)) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    chunks = [items[len(items) * i // k:len(items) * (i + 1) // k] for i in range(k)]
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
