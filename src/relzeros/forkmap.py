"""A map over contiguous chunks, each after the first solved in a forked worker
that sends its results back with marshal: complex, float and bool stay exact."""

import marshal
import os
import signal
import threading
from contextlib import suppress

MIN_CHUNK = 1024  # a fork costs 5-8 ms: below two chunks of this, a split does not pay


def chunk_count(cpus, n):
    """At most one chunk per CPU, each of at least MIN_CHUNK of the n items."""
    return max(1, min(cpus, n // MIN_CHUNK))


def forkmap(fn, items):
    """[fn(x) for x in items], bit for bit.  The caller solves the first chunk,
    then any whose worker failed, died or sent a short payload, so exceptions
    keep the loop's order; and all where os.fork is missing or raises OSError,
    or beside other threads.  Workers are reaped, and killed first on an error."""
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
                    with open(w, "wb") as f:
                        marshal.dump([fn(x) for x in chunks[i]], f)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            workers[i] = pid, open(r, "rb")
        out = [fn(x) for x in chunks[0]]
        for i, chunk in enumerate(chunks[1:], 1):
            part = None
            if i in workers:
                with workers[i][1] as f, suppress(EOFError, ValueError):
                    part = marshal.load(f)  # read as it comes: no copy of the whole payload
                if os.waitpid(workers.pop(i)[0], 0)[1]:
                    part = None
            out += part if part is not None else [fn(x) for x in chunk]
        return out
    finally:
        for pid, f in workers.values():
            os.kill(pid, signal.SIGKILL)
            f.close()
            os.waitpid(pid, 0)
