"""Record benchmark medians of one or more checkouts in a BENCH_<n>.json.

    python3 scripts/record_bench.py BENCH_6.json parent=../parent change=.

Each LABEL=DIR names a checkout of this repository.  For every workload in
BENCHMARK.json and every seed (1-3 unless --seeds gives others), each
checkout in turn runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

where T is the run_seconds of BENCHMARK.json.  Then each checkout in turn
times ten runs of each of

    python3 -m relzeros reproduce --suite all --json     (key "reproduce")
    python3 -m relzeros roots k6:20:20                   (key "roots_k6_20_20")
    python3 -m relzeros locus d --lambda 0.1 --samples 8192 --out /dev/null
                                                         (key "locus_d_8192")
    python3 -m relzeros --help                           (key "help")
    python3 -m relzeros poly sparse_22.graph             (key "poly_sparse_22")

with its own src/ on PYTHONPATH, its output sent to /dev/null, and a scratch
working directory that holds the graph file; the third is the locus-53
workload's largest sweep as a user runs it, its CSV written to /dev/null,
the fourth a process that does no work, whose time is the start-up every
command pays: the import of relzeros.cli, and the fifth one enumeration of
compare_outputs.py's sparse_22.graph (two classes, 22 edges: the structure
of exact-enum's 9-vertex graph) with its start-up.  That start-up is about
0.11 s around about 1 ms of enumeration, so the enumeration layer is also
timed in process: in each of ten rounds, each checkout in turn runs one
process (ENUM_SCRIPT) that times 40 calls of connected_subgraph_poly on
each of compare_outputs.py's dense_22.graph, sparse_22.graph and
cap_24.graph and on K6 with two disjoint triangles, and keeps the best
of each (key "enumeration").  Last, each
checkout in turn, the first one rotated on from the timed commands' last
round, runs the tier-1 suite once,

    python3 -m pytest -q --continue-on-collection-errors   (key "tier1")

in the checkout, with its src/ on PYTHONPATH; a property test that draws a
known failing input on that run fails in the record.  Before the first
run, the git-ignored __pycache__ directories under each checkout's src/
and bench/ are removed, and every subprocess runs with
PYTHONDONTWRITEBYTECODE=1, so that each process compiles the checkout's
own modules from source, whatever an earlier run left there; the standard
library and mpmath load from their installed bytecode, on every side
alike.  The checkout that runs first alternates from seed to seed and from
run to run, so that a slow stretch of a shared host does not fall on one
side only.  The file gets, per label: the seeds and run length, these
bytecode settings, the commit, whether src/ or bench/ had uncommitted
changes, the line count of the Python files under src/, the token count of
roots.py and of every module of src/relzeros, every run's end-to-end
metrics and checks, with its host clock ("clock": the median probe time
probe_median_s and the median raw_pass_wall_s of its untraced passes'
uncorrected wall times, both from run.py's line before last, so that a
gain can be checked on the uncorrected clock), per workload the median of
each end-to-end metric and, under "median_clock", of those two, under
each command's key every run's wall seconds, peak RSS and exit code, with
the median seconds, the median peak RSS and the exit codes seen, and
under "enumeration" every round's best seconds per graph with their
median per graph, and under "tier1" the suite's wall seconds, pytest's
summary line and its exit code.  A timed command's peak RSS is the
ru_maxrss that wait4 returns: that of the largest process in its tree,
since the kernel folds the reaped descendants of a process (a locus
sweep's forked workers) into it as a maximum, not a sum.

Every label after the first also gets "versus_first": the first label,
and the ratio of each of its runs to the first label's run of the same
seed (per workload and end-to-end metric of BENCHMARK.json) or of the
same round (per timed command, of the wall seconds; per enumerated
graph, of the best seconds; per workload also of raw_pass_wall_s), with
their median
and the pairs won: the ratios below 1 for a metric whose better direction
is "lower" (so, for a timed command, the rounds it ran faster), above 1
for "higher"; ties count for neither.  Each pair ran back to back, so
its ratio is what the alternating order is for; on a host whose speed
drifts, each side's median can contradict the pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMED = {
    "reproduce": ["reproduce", "--suite", "all", "--json"],
    "roots_k6_20_20": ["roots", "k6:20:20"],
    "locus_d_8192": ["locus", "d", "--lambda", "0.1", "--samples", "8192", "--out", "/dev/null"],
    "help": ["--help"],
    "poly_sparse_22": ["poly", "sparse_22.graph"],
}
TIMED_RUNS = 10
ENUM_GRAPHS = ["dense_22.graph", "sparse_22.graph", "cap_24.graph", "k6"]
ENUM_REPEATS = 40
ENUM_SCRIPT = """
import json, sys, time
from relzeros import connected_subgraph_poly
from relzeros.multigraph import k6_disjoint_triangles, parse_graph
best = {}
for name in sys.argv[1:]:
    g = k6_disjoint_triangles() if name == "k6" else parse_graph(open(name).read())
    times = []
    for _ in range(%d):
        start = time.perf_counter()
        connected_subgraph_poly(g)
        times.append(time.perf_counter() - start)
    best[name] = min(times)
print(json.dumps(best))
""" % ENUM_REPEATS
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
BYTECODE = {"PYTHONDONTWRITEBYTECODE": "1",
            "__pycache__": "removed under src/ and bench/ before the first run"}
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


def git(checkout, *args):
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                          check=True).stdout.strip()


def tokens(path):
    """tokenize's token count of one module: past CPython's 8,192-token parser
    step, compiling it takes more memory, which shows in peak_rss_mb."""
    with open(path) as fh:
        return sum(1 for _ in tokenize.generate_tokens(fh.readline))


def remove_bytecode(checkout):
    """Delete the checkout's own __pycache__ directories (git ignores them),
    so that no run reads bytecode compiled from other source."""
    for top in ("src", "bench"):
        for cache in sorted((checkout / top).rglob("__pycache__")):
            shutil.rmtree(cache)


def describe(checkout, seeds, seconds):
    return {
        "seeds": seeds,
        "seconds": seconds,
        "bytecode": BYTECODE,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(git(checkout, "status", "--porcelain", "--", "src", "bench")),
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted((checkout / "src").rglob("*.py"))),
        "roots_tokens": tokens(checkout / "src" / "relzeros" / "roots.py"),
        "module_tokens": {f.name: tokens(f)
                          for f in sorted((checkout / "src" / "relzeros").glob("*.py"))},
        "runs": {},
        **{key: {"command": "relzeros " + " ".join(args), "runs": []}
           for key, args in TIMED.items()},
        "enumeration": {"graphs": ENUM_GRAPHS, "repeats": ENUM_REPEATS, "runs": []},
    }


def run_bench(checkout, workload, seed, seconds):
    """One untraced benchmark run: its end-to-end metrics and checks."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, env=ENV, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise RuntimeError("bench/run.py failed in %s (exit %d): %s"
                           % (checkout, proc.returncode, proc.stderr[-2000:]))
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "clock": {"probe_median_s": info["probe_median_s"],
                  "raw_pass_wall_s": statistics.median(info["raw_pass_walls"])},
    }


def run_timed(checkout, args, workdir):
    """Wall seconds, peak RSS and exit code of one `relzeros ARGS` run of the
    checkout's src/ in workdir."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "relzeros", *args], cwd=workdir,
                            env=dict(ENV, PYTHONPATH=str(checkout / "src")),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return {"seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode}


def run_enumeration(checkout, workdir):
    """The best of ENUM_REPEATS in-process connected_subgraph_poly times per graph."""
    proc = subprocess.run([sys.executable, "-c", ENUM_SCRIPT, *ENUM_GRAPHS], cwd=workdir,
                          env=dict(ENV, PYTHONPATH=str(checkout / "src")),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run_tier1(checkout):
    """Wall seconds, pytest's summary line and exit code of one tier-1 run."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, capture_output=True,
                          text=True, env=dict(ENV, PYTHONPATH=str(checkout / "src")))
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines() or [""]
    return {"seconds": seconds, "summary": lines[-1].strip("= "), "exit_code": proc.returncode}


def turns(sides, i):
    """The checkouts in running order for the i-th round: the first rotates."""
    return sides[i % len(sides):] + sides[:i % len(sides)]


def medians(runs, key="metrics"):
    names = runs[0][key]
    return {name: statistics.median(r[key][name] for r in runs) for name in names}


def paired(ratios, better):
    """Per-pair ratios (this side over the first), their median, and the
    pairs won in the better direction; ties count for neither."""
    wins = sum(r < 1 if better == "lower" else r > 1 for r in ratios)
    return {"ratios": ratios, "median": statistics.median(ratios), "wins": wins}


def versus_first(side, first, first_label, better):
    """Every pair's ratio, by seed per workload and end-to-end metric
    (better maps each metric to "lower" or "higher") and by round per
    timed command."""
    out = {"first": first_label, "workloads": {}}
    for workload, runs in side["runs"].items():
        pairs = list(zip(runs, first["runs"][workload]))
        out["workloads"][workload] = {
            name: paired([r["metrics"][name] / f["metrics"][name] for r, f in pairs], direction)
            for name, direction in better.items()}
        out["workloads"][workload]["raw_pass_wall_s"] = paired(
            [r["clock"]["raw_pass_wall_s"] / f["clock"]["raw_pass_wall_s"] for r, f in pairs],
            "lower")
    for key in TIMED:
        pairs = zip(side[key]["runs"], first[key]["runs"])
        out[key] = paired([r["seconds"] / f["seconds"] for r, f in pairs], "lower")
    pairs = list(zip(side["enumeration"]["runs"], first["enumeration"]["runs"]))
    out["enumeration"] = {name: paired([r[name] / f[name] for r, f in pairs], "lower")
                          for name in ENUM_GRAPHS}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", type=Path, help="the BENCH_<n>.json to write")
    p.add_argument("checkouts", nargs="+", metavar="LABEL=DIR")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = p.parse_args(argv)

    sides = []
    for spec in args.checkouts:
        label, sep, path = spec.partition("=")
        if not sep or not label:
            p.error("expected LABEL=DIR, got %r" % spec)
        sides.append((label, Path(path).resolve()))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    record = {label: describe(checkout, args.seeds, seconds) for label, checkout in sides}
    for _, checkout in sides:
        remove_bytecode(checkout)

    for workload in workloads:
        for i, seed in enumerate(args.seeds):
            for label, checkout in turns(sides, i):
                run = run_bench(checkout, workload, seed, seconds)
                record[label]["runs"].setdefault(workload, []).append(run)
                print("%s %s seed %d: %s" % (label, workload, seed, json.dumps(run)), flush=True)
    from compare_outputs import GRAPHS  # scripts/ is on sys.path when this runs as a script

    with tempfile.TemporaryDirectory() as workdir:
        for name in ("sparse_22.graph", "dense_22.graph", "cap_24.graph"):
            Path(workdir, name).write_text(GRAPHS[name])
        for key, command in TIMED.items():
            for i in range(TIMED_RUNS):
                for label, checkout in turns(sides, i):
                    run = run_timed(checkout, command, workdir)
                    record[label][key]["runs"].append(run)
                    print("%s %s: %s" % (label, key, json.dumps(run)), flush=True)
        for i in range(TIMED_RUNS):
            for label, checkout in turns(sides, i):
                run = run_enumeration(checkout, workdir)
                record[label]["enumeration"]["runs"].append(run)
                print("%s enumeration: %s" % (label, json.dumps(run)), flush=True)
    for label, checkout in turns(sides, TIMED_RUNS):
        record[label]["tier1"] = run_tier1(checkout)
        print("%s tier1: %s" % (label, json.dumps(record[label]["tier1"])), flush=True)
    for side in record.values():
        side["median"] = {w: medians(runs) for w, runs in side["runs"].items()}
        side["median_clock"] = {w: medians(runs, "clock") for w, runs in side["runs"].items()}
        for key in TIMED:
            timed = side[key]
            timed["median_s"] = statistics.median(r["seconds"] for r in timed["runs"])
            timed["median_peak_rss_mb"] = statistics.median(r["peak_rss_mb"]
                                                            for r in timed["runs"])
            timed["exit_codes"] = sorted({r["exit_code"] for r in timed["runs"]})
        enum = side["enumeration"]
        enum["median_best_s"] = {name: statistics.median(r[name] for r in enum["runs"])
                                 for name in ENUM_GRAPHS}
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    (first_label, _), *others = sides
    for label, _ in others:
        record[label]["versus_first"] = versus_first(record[label], record[first_label],
                                                     first_label, better)

    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
