"""relzeros benchmark: one workload, timed for a fixed run length, checked.

    python3 bench/run.py --workload mp-roots --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: it imports relzeros from the
checkout's own src/ and exits non-zero, printing no result, when there is
none.  A run sets up the workload (the median of SETUP_SAMPLES fresh-process
set-ups is setup_s), then repeats whole passes over it until --seconds have
passed.  Every time that enters an end-to-end metric is host-corrected
seconds from hostclock.py; the raw wall times are printed beside them.
With --trace 0 every pass is untraced and the last stdout line carries
the end-to-end metrics.  With --trace 1 passes alternate untraced
and traced; the traced ones give the per-layer metrics, the difference
gives the tracing overhead, and the spans are written to
bench/out/trace-<workload>-seed<seed>.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import HostClock
from tracing import Recorder, span_totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("mp-roots", "locus-53", "exact-enum")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
OVERRUN = 1.35

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_p50_s", "s"),
    ("samples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# name -> unit; each is the total over the calls of one traced pass
# (the mean when a run makes several traced passes).
PER_LAYER = {
    "cli.resolve_spec.busy_s": "s",
    "cli.main.busy_s": "s",
    "cli.reproduce.rows": "count",
    "cli.reproduce.failed_rows": "count",
    "cli.reproduce.unattributed_s": "s",
    "multigraph.is_series_parallel.calls": "count",
    "multigraph.is_series_parallel.busy_s": "s",
    "reliability.connected_subgraph_poly.calls": "count",
    "reliability.connected_subgraph_poly.busy_s": "s",
    "reliability.connected_subgraph_poly.edges_max": "count",
    "reliability.two_class_specialize.calls": "count",
    "reliability.two_class_specialize.busy_s": "s",
    "reliability.two_class_specialize.degree_max": "count",
    "reliability.reduce_sp_value.calls": "count",
    "reliability.reduce_sp_value.busy_s": "s",
    "roots.find_roots.mp.calls": "count",
    "roots.find_roots.mp.busy_s": "s",
    "roots.find_roots.mp.degree_sum": "count",
    "roots.find_roots.mp.failed": "count",
    "roots.min_disc_distance.busy_s": "s",
    "roots.disc_verdict.calls": "count",
    "roots.disc_verdict.busy_s": "s",
    "roots.disc_verdict.ambiguous_frac": "ratio",
    "roots.bc_lambda_holds_univariate.calls": "count",
    "roots.bc_lambda_holds_univariate.busy_s": "s",
    "roots.bc_lambda_holds_univariate.undecidable": "count",
    "roots.lambda_star_univariate.calls": "count",
    "roots.lambda_star_univariate.busy_s": "s",
    "roots.trace_locus.calls": "count",
    "roots.trace_locus.busy_s": "s",
    "roots.trace_locus.samples": "count",
    "roots.trace_locus.gap_frac": "ratio",
    "roots.trace_locus.violations": "count",
    "roots.region_endpoint_angle.calls": "count",
    "roots.region_endpoint_angle.busy_s": "s",
    "roots.estimate_branch_coefficients.calls": "count",
    "roots.estimate_branch_coefficients.busy_s": "s",
    "bench.item.self_s": "s",
    "bench.pass.self_s": "s",
    "bench.failed_frac": "ratio",
    "trace.passes": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.span_cost_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="relzeros benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0, help="run length of the timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the set-up seconds and exit (used for setup_s)")
    return p.parse_args(argv)


def use_checkout_source():
    """Import relzeros from this checkout's src/ only, on mpmath's pure-Python backend."""
    if not (SRC / "relzeros" / "__init__.py").is_file():
        raise SystemExit("error: no relzeros package under %s" % SRC)
    os.environ["MPMATH_NOGMPY"] = "1"
    sys.path.insert(0, str(SRC))


def setup(workload, seed):
    """(corrected seconds, inputs): import relzeros and build the workload's exact inputs."""
    clock = HostClock()
    clock.start()
    t0 = time.perf_counter()
    import workloads
    setup_fn, _ = workloads.WORKLOADS[workload]
    inputs = setup_fn(seed)
    t1 = time.perf_counter()
    clock.stop()
    return clock.seconds(t0, t1), inputs


def probe_setup(workload, seed):
    """One set-up in a fresh interpreter, so the import is paid again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment(seed):
    import mpmath

    try:
        top, commit = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                     capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() != ROOT:  # a checkout nested in some other repository
            commit = None
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None
    backend = mpmath.libmp.BACKEND
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": backend,
        "mpmath_backend_flag": None if backend == "python" else "not the pure-Python backend",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py"))),
    }


def run_passes(run_pass, inputs, rec, checks, seconds, trace):
    """Whole passes until `seconds` have gone by; with trace, odd passes are traced.

    No pass starts that would likely end after OVERRUN * seconds, which
    bounds a run's length whatever the pass length.

    Returns [(traced, (t0, t1), record)] with at least one untraced pass,
    and at least one traced pass when trace is on.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        record = {"items": [], "samples": 0, "sample_spans": []}
        rec.enabled = traced
        t0 = time.perf_counter()
        with rec.span("bench.pass", len(passes)):
            run_pass(inputs, rec, checks, record)
        t1 = time.perf_counter()
        rec.enabled = False
        passes.append((traced, (t0, t1), record))
        elapsed = t1 - start
        if len(passes) >= (2 if trace else 1) and (
                elapsed >= seconds or elapsed * (1 + 1 / len(passes)) > OVERRUN * seconds):
            return passes


def end_to_end(passes, setup_samples, clock):
    untraced = [(span, rec) for traced, span, rec in passes if not traced]
    walls = [clock.seconds(*span) for span, _ in untraced]
    items = [clock.seconds(*t) for _, rec in untraced for t in rec["items"]]
    samples = sum(rec["samples"] for _, rec in untraced)
    sample_s = sum(clock.seconds(*t) for _, rec in untraced for t in rec["sample_spans"])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(walls),
        "verdict_p50_s": statistics.median(items),
        "samples_per_s": samples / sample_s,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    info = {"pass_walls": walls, "raw_pass_walls": [t1 - t0 for (t0, t1), _ in untraced],
            "verdict_samples": len(items), "samples": samples, "setup_samples": setup_samples,
            **clock.summary()}
    return values, info


def per_layer(passes, rec, checks, clock):
    totals = span_totals(rec.spans)
    n = sum(traced for traced, _, _ in passes)
    counters = rec.counters

    def per_pass(layer, stat):
        return totals.get(layer, {}).get(stat, 0) / n

    values = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "busy_s", "self_s"):
            values[name] = per_pass(layer, stat)
        elif name.endswith("_max"):
            values[name] = counters.get(name, 0)
        else:
            values[name] = counters.get(name, 0) / n
    # stats derived from span errors, ratios and run-level figures
    values["roots.find_roots.mp.failed"] = per_pass("roots.find_roots.mp", "errors")
    values["roots.bc_lambda_holds_univariate.undecidable"] = sum(
        s["name"] == "roots.bc_lambda_holds_univariate" and s.get("error") == "UndecidableDiscError"
        for s in rec.spans) / n
    verdicts = per_pass("roots.disc_verdict", "calls")
    ambiguous = counters.get("roots.disc_verdict.ambiguous", 0) / n
    values["roots.disc_verdict.ambiguous_frac"] = ambiguous / verdicts if verdicts else 0.0
    samples = values["roots.trace_locus.samples"]
    gaps = counters.get("roots.trace_locus.gaps", 0) / n
    values["roots.trace_locus.gap_frac"] = gaps / samples if samples else 0.0
    values["bench.failed_frac"] = checks.failed / checks.attempted
    untraced = statistics.median(clock.seconds(*span) for traced, span, _ in passes if not traced)
    traced = statistics.median(clock.seconds(*span) for is_traced, span, _ in passes if is_traced)
    values["trace.passes"] = n
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_frac"] = (traced - untraced) / untraced
    values["trace.span_cost_s"] = len(rec.spans) / n * span_cost()
    return values, totals


def span_cost(n=5000):
    """Seconds one recorded span adds, timed on a no-op call."""
    probe = Recorder("calibration")
    probe.enabled = True
    t0 = time.perf_counter()
    for _ in range(n):
        probe.call("noop", int)
    return (time.perf_counter() - t0) / n


def write_trace(workload, seed, env, passes, rec, totals):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("trace-%s-seed%d.json" % (workload, seed))
    doc = {
        "workload": workload,
        "env": env,
        "passes": [{"traced": t, "wall_s": t1 - t0} for t, (t0, t1), _ in passes],
        "totals": totals,
        "counters": dict(rec.counters),
        "spans": rec.spans,
    }
    path.write_text(json.dumps(doc, indent=1))
    return path


def main(argv=None):
    args = parse_args(argv)
    use_checkout_source()
    if args.setup_probe:
        print(setup(args.workload, args.seed)[0])
        return 0

    first_setup, inputs = setup(args.workload, args.seed)
    setup_samples = [first_setup] + [probe_setup(args.workload, args.seed)
                                     for _ in range(SETUP_SAMPLES - 1)]
    import workloads

    _, run_pass = workloads.WORKLOADS[args.workload]
    rec = Recorder(args.workload)
    checks = workloads.Checks()
    clock = HostClock()
    clock.start()
    try:
        passes = run_passes(run_pass, inputs, rec, checks, args.seconds, args.trace)
    finally:
        clock.stop()
    env = environment(args.seed)

    if args.trace:
        values, totals = per_layer(passes, rec, checks, clock)
        units = PER_LAYER
        info = {"trace_file": str(write_trace(args.workload, args.seed, env, passes, rec,
                                              totals).relative_to(ROOT))}
    else:
        values, info = end_to_end(passes, setup_samples, clock)
        units = dict(END_TO_END)
    for label in checks.failures[:20]:
        print("check failed: %s" % label, file=sys.stderr)
    print(json.dumps({"env": env, "workload": args.workload, **info}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
