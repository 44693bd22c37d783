"""trace_locus split across forked workers gives the in-process loop's curve.

Every test here sees two CPUs, whatever the host has, so a sweep whose
solved first half has 2 * MIN_CHUNK samples or more (a grid of
4 * MIN_CHUNK - 1 or more) runs that half as two chunks: the caller's and one
worker's.  The loop solves the same half, and the rest of its curve is the
exact conjugate, built by the tests' own oracle.
"""

import io
import marshal
import math
import os
import signal
import threading
import time

import pytest
from mpmath import mp

from relzeros import ExactBiPoly, forkmap, region_endpoint_angle, trace_locus
from relzeros import roots as roots_module
from relzeros.forkmap import MIN_CHUNK, chunk_count
from relzeros.reference import family_bipoly
from relzeros.roots import (_collapse_hardware, _half_angle_circle, _hardware_rows,
                            _locus_sample, _locus_sample_floats, _rows)
from util_graphs import grid_point, hexed, mirrored_locus

N = 4 * MIN_CHUNK  # a grid whose solved half, 2 * MIN_CHUNK samples, splits on two CPUs


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked, as the caller sees them."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_process_loop(p, swept, lam, n, prec=53):
    """trace_locus's samples: its solved first half solved one by one in this
    process, the rest the exact conjugates of their partners."""
    work = p if swept == "b" else p.transposed()
    rows, exact_rows = _hardware_rows(work), _rows(work)
    out = []
    for j in range((n + 1) // 2):
        if prec == 53:
            w = _half_angle_circle(lam, 2 * math.pi * (j + 1) / (n + 1))
            out.append(_locus_sample_floats(_collapse_hardware(rows, w), lam, work.degree_a))
        else:
            with mp.workprec(prec):
                cps = _collapse_hardware(exact_rows, grid_point(lam, j, n))
            out.append(_locus_sample(cps, lam, prec, work.degree_a))
    return mirrored_locus(out, n)


def raising_at(monkeypatch, index, n=N):
    """Make sample `index` of an n-sample grid raise, on top of earlier patches."""
    bad = 2 * math.pi * (index + 1) / (n + 1)
    half_angle = roots_module._half_angle_circle

    def failing(lam, theta):
        if theta == bad:
            raise ArithmeticError("sample %d failed" % index)
        return half_angle(lam, theta)

    monkeypatch.setattr(roots_module, "_half_angle_circle", failing)


def in_worker(fail):
    """A _half_angle_circle that calls fail() first in a forked worker only."""
    caller, half_angle = os.getpid(), roots_module._half_angle_circle

    def patched(lam, theta):
        if os.getpid() != caller:
            fail()
        return half_angle(lam, theta)

    return patched


def raise_here():
    raise ArithmeticError("worker only")


def die():
    os.kill(os.getpid(), signal.SIGKILL)


def curve_samples(curve):
    return list(zip(curve.roots, curve.violation_flags, curve.gaps))


@pytest.mark.parametrize("cpus, n, k", [
    (1, 10 ** 6, 1), (2, 16, 1), (2, 512, 1), (2, 1023, 1), (2, 1024, 2), (2, 2048, 2),
    (2, 8192, 2), (4, 1536, 3), (4, 2048, 4), (4, 4096, 4), (4, 65536, 4), (64, 65536, 64),
    (64, 2048, 4), (64, 4096, 8)])
def test_chunk_count_rule(cpus, n, k):
    assert chunk_count(cpus, n) == k


@pytest.mark.parametrize("lam", [1.0, 0.1])
@pytest.mark.parametrize("swept", ["a", "b"])
@pytest.mark.parametrize("case", ["a", "b", "c", "d", "e", "k6"])
def test_split_sweep_matches_the_loop_bit_for_bit(forks, case, swept, lam):
    p = family_bipoly(case)
    curve = trace_locus(p, swept, lam, N)
    assert len(forks) == 1
    assert hexed(curve_samples(curve)) == hexed(in_process_loop(p, swept, lam, N))
    assert_no_child_left()


def test_split_sweep_above_53_bits_matches_the_loop(forks):
    p = family_bipoly("b")
    curve = trace_locus(p, "b", 0.1, N, 80)
    assert len(forks) == 1 and curve.violation_count() > 0
    assert hexed(curve_samples(curve)) == hexed(in_process_loop(p, "b", 0.1, N, 80))
    assert_no_child_left()


def test_small_sweep_forks_nothing(forks):
    # 4 * MIN_CHUNK - 2 samples: a solved half of 2 * MIN_CHUNK - 1
    trace_locus(family_bipoly("d"), "b", 1.0, N - 2)
    assert forks == []


def test_odd_grid_splits_its_solved_half(forks):
    # 4 * MIN_CHUNK - 1 samples: the solved half, 2 * MIN_CHUNK with the
    # middle sample at theta = pi, splits; the other 2 * MIN_CHUNK - 1 mirror it
    p = family_bipoly("k6")
    curve = trace_locus(p, "a", 1.0, N - 1)
    assert len(forks) == 1
    assert hexed(curve_samples(curve)) == hexed(in_process_loop(p, "a", 1.0, N - 1))
    assert_no_child_left()


def test_fork_that_fails_gives_the_same_curve(monkeypatch):
    p = family_bipoly("d")
    want = hexed(in_process_loop(p, "b", 0.1, N))

    def failing_fork():
        raise OSError("fork failed")

    monkeypatch.setattr(os, "fork", failing_fork)
    assert hexed(curve_samples(trace_locus(p, "b", 0.1, N))) == want
    assert_no_child_left()


def test_other_threads_keep_the_sweep_in_process(forks):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        curve = trace_locus(family_bipoly("d"), "b", 1.0, N)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and forks == []
    assert hexed(curve_samples(curve)) == hexed(in_process_loop(family_bipoly("d"), "b", 1.0, N))


@pytest.mark.parametrize("index", [N // 2 - 3, 5])  # the worker's chunk, then the caller's
def test_sample_that_raises_surfaces_as_in_the_loop(forks, monkeypatch, index):
    raising_at(monkeypatch, index)
    with pytest.raises(ArithmeticError) as split:
        trace_locus(family_bipoly("d"), "b", 1.0, N)
    assert len(forks) == 1
    assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(ArithmeticError) as loop:
        trace_locus(family_bipoly("d"), "b", 1.0, N)
    assert len(forks) == 1
    assert (split.type, str(split.value)) == (loop.type, str(loop.value))
    assert str(split.value) == "sample %d failed" % index
    assert_no_child_left()


def test_caller_error_kills_a_busy_worker(forks, monkeypatch):
    # the worker would sleep 10 s; the caller's chunk fails at once
    slept = []

    def sleep_once():
        if not slept:
            slept.append(time.sleep(10))

    monkeypatch.setattr(roots_module, "_half_angle_circle", in_worker(sleep_once))
    raising_at(monkeypatch, 5)
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="^sample 5 failed$"):
        trace_locus(family_bipoly("d"), "b", 1.0, N)
    assert time.perf_counter() - start < 5 and len(forks) == 1
    assert_no_child_left()


def test_first_exception_of_the_grid_wins(forks, monkeypatch):
    # samples in both chunks raise: the caller's, earlier on the grid, is the one seen
    raising_at(monkeypatch, N // 2 - 3)
    raising_at(monkeypatch, 7)
    with pytest.raises(ArithmeticError, match="^sample 7 failed$"):
        trace_locus(family_bipoly("d"), "b", 1.0, N)
    assert_no_child_left()


@pytest.mark.parametrize("fail", [raise_here, die], ids=["raises", "killed"])
def test_worker_that_fails_or_dies_is_solved_again(forks, monkeypatch, fail):
    p = family_bipoly("b")
    want = hexed(in_process_loop(p, "b", 1.0, N))
    monkeypatch.setattr(roots_module, "_half_angle_circle", in_worker(fail))
    assert hexed(curve_samples(trace_locus(p, "b", 1.0, N))) == want
    assert len(forks) == 1
    assert_no_child_left()


def in_caller(monkeypatch):
    """The thetas of the samples the calling process solves, on top of earlier patches."""
    caller, half_angle, thetas = os.getpid(), roots_module._half_angle_circle, []

    def counting(lam, theta):
        if os.getpid() == caller:
            thetas.append(theta)
        return half_angle(lam, theta)

    monkeypatch.setattr(roots_module, "_half_angle_circle", counting)
    return thetas


def worker_sends(monkeypatch, edit):
    """Make a forked worker send edit(stream) in place of the stream of frames it writes."""
    real_open = open

    class Edited(io.BytesIO):
        def __init__(self, fd):
            super().__init__()
            self.fd = fd

        def close(self):
            if not self.closed:
                with real_open(self.fd, "wb") as f:
                    f.write(edit(self.getvalue()))
            super().close()

    monkeypatch.setattr(forkmap, "open", lambda fd, mode: Edited(fd) if mode == "wb"
                        else real_open(fd, mode), raising=False)


def frames(stream):
    """A worker's stream cut into its frames, each with its 4-byte length prefix."""
    out = []
    while stream:
        end = 4 + int.from_bytes(stream[:4], "little")
        out.append(stream[:end])
        stream = stream[end:]
    return out


def framed(results):
    frame = marshal.dumps(results)
    return len(frame).to_bytes(4, "little") + frame


def wrong_last_sample(stream):
    *head, last = frames(stream)
    return b"".join(head) + framed(marshal.loads(last[4:])[:-1] + [([], [], True)])


@pytest.fixture(scope="module")
def odd_sweep():
    """Case b at lam 1 over 5,000 samples, solved in one loop: on two CPUs the
    worker's 1,250 of the 2,500 solved samples go in frames of 512, 512 and 226."""
    return 5000, hexed(in_process_loop(family_bipoly("b"), "b", 1.0, 5000))


@pytest.mark.parametrize("keep", [0, 2, 1000])
def test_short_payload_is_solved_again(forks, monkeypatch, keep):
    # the worker sends only the first `keep` bytes of its one frame, then exits 0
    p = family_bipoly("b")
    want = hexed(in_process_loop(p, "b", 1.0, N))
    worker_sends(monkeypatch, lambda stream: stream[:keep])
    solved = in_caller(monkeypatch)
    assert hexed(curve_samples(trace_locus(p, "b", 1.0, N))) == want
    assert len(forks) == 1 and len(solved) == N // 2
    assert_no_child_left()


def test_payload_of_a_worker_that_exits_nonzero_is_dropped(forks, monkeypatch):
    # every frame arrives, the last with a wrong last sample, from a worker
    # that exits with status 3: the caller solves its chunk again
    p = family_bipoly("b")
    want = hexed(in_process_loop(p, "b", 1.0, N))
    exit_ = os._exit
    worker_sends(monkeypatch, wrong_last_sample)
    monkeypatch.setattr(os, "_exit", lambda code: exit_(3))
    solved = in_caller(monkeypatch)
    assert hexed(curve_samples(trace_locus(p, "b", 1.0, N))) == want
    assert len(forks) == 1 and len(solved) == N // 2
    assert_no_child_left()


def one_result_short(stream):
    *head, last = frames(stream)
    return b"".join(head) + framed(marshal.loads(last[4:])[:-1])


def one_result_more(stream):
    *head, last = frames(stream)
    results = marshal.loads(last[4:])
    return b"".join(head) + framed(results + results[-1:])


def unknown_type_code(stream):
    first, second, *rest = frames(stream)
    return b"".join([first, second[:4], b"\xff", second[5:], *rest])


FRAME_EDITS = {
    "cut in a length prefix": lambda s: frames(s)[0] + frames(s)[1][:3],
    "cut in a later body": lambda s: b"".join(frames(s)[:2]) + frames(s)[2][:-1],
    "last frame missing": lambda s: b"".join(frames(s)[:-1]),
    "one trailing byte": lambda s: s + b"\0",
    "bad marshal data": unknown_type_code,
    "one result short": one_result_short,
    "one result more": one_result_more,
    "last frame not a list": lambda s: b"".join(frames(s)[:-1]) + framed(None),
}


@pytest.mark.parametrize("edit", FRAME_EDITS.values(), ids=FRAME_EDITS.keys())
def test_stream_other_than_the_frames_is_solved_again(forks, monkeypatch, odd_sweep, edit):
    # the worker exits 0 after it sends edit(its frames): the caller solves its chunk again
    n, want = odd_sweep
    worker_sends(monkeypatch, edit)
    solved = in_caller(monkeypatch)
    assert hexed(curve_samples(trace_locus(family_bipoly("b"), "b", 1.0, n))) == want
    assert len(forks) == 1 and len(solved) == n // 2
    assert_no_child_left()


def test_partial_last_frame_is_taken(forks, monkeypatch, odd_sweep):
    # the worker checks its own frames; had they been other than 512, 512
    # and 226 results, it would send nothing, and the caller would solve them
    n, want = odd_sweep
    sizes = [MIN_CHUNK, MIN_CHUNK, n // 4 - 2 * MIN_CHUNK]
    worker_sends(monkeypatch, lambda s: s if [len(marshal.loads(f[4:])) for f in frames(s)]
                 == sizes else b"")
    solved = in_caller(monkeypatch)
    assert hexed(curve_samples(trace_locus(family_bipoly("b"), "b", 1.0, n))) == want
    assert len(forks) == 1 and len(solved) == n // 4
    assert_no_child_left()


@pytest.mark.parametrize("case, plane", [("b", "a"), ("b", "b"), ("d", "a"), ("d", "b")])
def test_split_endpoint_scan_matches_the_loop(forks, monkeypatch, case, plane):
    # the 1,024 scan points are two chunks of MIN_CHUNK on two CPUs, one on one
    split = region_endpoint_angle(family_bipoly(case), plane)
    assert len(forks) == 1
    assert_no_child_left()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert region_endpoint_angle(family_bipoly(case), plane) == split
    assert len(forks) == 1


@pytest.mark.parametrize("points", [[700], [100, 700]])
def test_scan_error_is_the_loops(forks, monkeypatch, points):
    # the scan points raise in the worker's chunk alone, or in both: the first
    # on the grid is the one seen, as in the loop
    bad = {math.pi * (j + 1) / 1025: j for j in points}
    half_angle = roots_module._half_angle_circle

    def failing(lam, theta):
        if theta in bad:
            raise ArithmeticError("point %d failed" % bad[theta])
        return half_angle(lam, theta)

    monkeypatch.setattr(roots_module, "_half_angle_circle", failing)
    with pytest.raises(ArithmeticError, match="^point %d failed$" % points[0]):
        region_endpoint_angle(family_bipoly("b"), "a")
    assert len(forks) == 1
    assert_no_child_left()


def test_forkmap_keeps_order_and_exact_values(forks):
    items = list(range(3 * MIN_CHUNK))
    got = forkmap.forkmap(lambda x: (complex(x, -0.0), x / 3, x % 2 == 0), items)
    assert len(forks) == 1
    assert got == [(complex(x, -0.0), x / 3, x % 2 == 0) for x in items]
    assert all(str(z.imag) == "-0.0" for z, _, _ in got)
    assert_no_child_left()


def test_exact_boundary_survives_the_split():
    curve = trace_locus(ExactBiPoly({(0, 0): 2, (1, 0): 1}), "b", 1.0, N)
    assert all(roots == [-2] and flags == [False]
               for roots, flags in zip(curve.roots, curve.violation_flags))
