"""The benchmark's three workloads: inputs from a seed, one timed pass, checks.

mp-roots    the `relzeros roots` pipeline at 256 bits on published family
            members, plus `relzeros reproduce --suite k6 --json` through
            cli.main.  The multiprecision Aberth stage does the work.
locus-53    53-bit locus sweeps, violation-region endpoints and branch
            fits: tens of thousands of degree 2-6 solves, no 256-bit work.
exact-enum  the exact integer layers (enumeration, specialization,
            series-parallel reduction, circle-factor decisions); the
            Aberth stages are bypassed, so root-finder changes leave it flat.

Every workload takes the seed.  mp-roots and locus-53 run the published
inputs, so there the seed only fixes the order of the instances in a pass.
exact-enum draws its graphs, weights and bundle sizes from the seed.

Each pass appends per-instance wall intervals (perf_counter start, end) to
``out["items"]`` (the samples of verdict_p50_s), adds to ``out["samples"]``
and appends the intervals that solved them to ``out["sample_spans"]`` (the
numerator and the time of samples_per_s).  run.py turns the intervals
into host-corrected seconds (hostclock.py).  Every result is checked
against relzeros.reference at the acceptance suite's tolerances or against
an independent oracle; an exception inside an instance fails its check.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations

from mpmath import mp, mpf

from relzeros import (
    ComplexPoint,
    ExactBiPoly,
    Multigraph,
    cli,
    multigraph,
    reference,
    reliability,
    roots,
    shifted_power,
)


class Checks:
    """Counts checks attempted and failed; keeps the failing labels."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def expect(self, ok, label):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)

    @contextmanager
    def instance(self, label):
        """One instance's completion check: an exception inside fails it."""
        try:
            yield
        except Exception as exc:  # a library error is a failed check, not a crashed run
            self.expect(False, "%s raised %s: %s" % (label, type(exc).__name__, exc))
        else:
            self.expect(True, label)


# ---------------------------------------------------------------------------
# mp-roots

MP_PRECISION = 256
# Degrees 16-93.  k4:d:15:1 is the member whose 256-bit verdict is ambiguous
# and escalates to bc_lambda_holds_univariate at 512 bits; k4:d:30:1 is the
# degree-93 headline solve.  k4:b:1:15, k4:d:20:1 and k4:d:25:1 are left out
# so that a pass (12-20 s on a 2-vCPU host) fits the run length twice.
MP_MEMBERS = ("k4:b:1:7", "k4:b:6:1", "k4:d:1:9", "k4:b:11:1", "k4:b:1:12",
              "k4:d:15:1", "k4:d:30:1")


def _member_expectations(spec):
    _, case, p1, p2 = spec.split(":")
    p1, p2 = int(p1), int(p2)
    exp = {}
    fam, p = ("1p", p2) if p1 == 1 else ("p1", p1)
    table = reference.TABLE1_MIN_DISC.get((case, fam))
    if table is not None and p in reference.TABLE1_P_RANGE:
        exp["min_disc"] = table[p - reference.TABLE1_P_RANGE.start]
    named = reference.NAMED_ROOTS.get((case, p1, p2))
    if named is not None:
        exp["root"], exp["min_disc"] = named
    if case == "b" and (p1, p2) in reference.CONSTRUCTIONS:
        exp["v1"] = reference.CONSTRUCTIONS[(p1, p2)]["v1"]
    if "min_disc" not in exp:
        raise ValueError("no published min |1+v| for %s" % spec)
    exp["violated"] = exp["min_disc"] < 1
    return exp


def mp_setup(seed):
    rng = random.Random(seed)
    members = [(spec, _member_expectations(spec), cli.resolve_spec(spec)[1].degree)
               for spec in MP_MEMBERS]
    order = members + [None]  # None: the k6 reproduce suite
    rng.shuffle(order)
    return order


def mp_pass(order, rec, checks, out):
    for entry in order:
        if entry is None:
            _k6_suite(rec, checks)
        else:
            _mp_member(*entry, rec, checks, out)


def _mp_member(spec, exp, degree, rec, checks, out):
    with checks.instance(spec), rec.span("bench.item", spec):
        kind, poly, _ = rec.call("cli.resolve_spec", cli.resolve_spec, spec)
        t0 = time.perf_counter()
        rs = rec.call("roots.find_roots.mp", roots.find_roots, poly, MP_PRECISION)
        md = rec.call("roots.min_disc_distance", roots.min_disc_distance, rs, 1)
        exact = list(poly.coeffs[poly.low_order_zeros():])
        verdict = rec.call("roots.disc_verdict", roots.disc_verdict, rs, 1, exact)
        if verdict == "ambiguous":
            rec.count("roots.disc_verdict.ambiguous")
            holds = rec.call("roots.bc_lambda_holds_univariate",
                             roots.bc_lambda_holds_univariate, poly, 1, 2 * MP_PRECISION)
        else:
            holds = verdict == "holds"
        t1 = time.perf_counter()
        out["items"].append((t0, t1))
        out["samples"] += poly.degree
        out["sample_spans"].append((t0, t1))
        rec.count("roots.find_roots.mp.degree_sum", poly.degree)

        checks.expect(kind == "uni" and poly.degree == degree and rs.degree == degree,
                      "%s: %d roots for degree %d" % (spec, rs.degree, degree))
        exit_code = cli.EXIT_OK if holds else cli.EXIT_VIOLATION
        want_exit = cli.EXIT_VIOLATION if exp["violated"] else cli.EXIT_OK
        checks.expect(exit_code == want_exit,
                      "%s: verdict %s gives exit %d, expected %d" % (spec, verdict, exit_code, want_exit))
        md = float(md)
        checks.expect(abs(md - exp["min_disc"]) <= 1e-6,
                      "%s: min |1+v| %.9f vs %.6f" % (spec, md, exp["min_disc"]))
        if "root" in exp:
            root = exp["root"]
            near = [min(abs(complex(z) - t) for z in rs.roots) for t in (root, root.conjugate())]
            checks.expect(max(near) <= 1e-5, "%s: root %r off by %.2g" % (spec, root, max(near)))
            _, d = roots.min_disc_root(rs, 1, positive_imag=True)
            checks.expect(abs(float(d) - exp["min_disc"]) <= 1e-6,
                          "%s: named modulus %.9f" % (spec, float(d)))
        if "v1" in exp:
            v1, _ = roots.min_disc_root(rs, 1, positive_imag=True)
            checks.expect(abs(complex(v1) - exp["v1"]) <= 1e-9,
                          "%s: construction root %r" % (spec, complex(v1)))


def _parse_complex(text):
    # reproduce rows print roots as "%.6f%+.6fi"
    split = max(text.rfind("+"), text.rfind("-"))
    return complex(float(text[:split]), float(text[split:-1]))


def _k6_suite(rec, checks):
    with checks.instance("reproduce --suite k6"), rec.span("bench.item", "reproduce-k6"):
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = rec.call("cli.main", cli.main, ["reproduce", "--suite", "k6", "--json"])
        main_s = time.perf_counter() - t0
        rows = [json.loads(line) for line in stdout.getvalue().splitlines() if line.strip()]
        failed_rows = sum(not r["pass"] for r in rows)
        rec.count("cli.reproduce.rows", len(rows))
        rec.count("cli.reproduce.failed_rows", failed_rows)
        rec.count("cli.reproduce.unattributed_s", main_s - sum(r["seconds"] for r in rows))

        checks.expect(rc == cli.EXIT_OK, "reproduce k6: exit %r" % rc)
        checks.expect(len(rows) == 2 * len(reference.K6_ROOT) and failed_rows == 0,
                      "reproduce k6: %d rows, %d failed" % (len(rows), failed_rows))
        by_item = {r["item"]: r["computed"] for r in rows}
        for (p1, p2), (root, modulus) in reference.K6_ROOT.items():
            prefix = "k6-%d-%d" % (p1, p2)
            got_root = _parse_complex(by_item.get(prefix + "-root", "nan+nani"))
            got_mod = float(by_item.get(prefix + "-modulus", "nan"))
            checks.expect(abs(got_root - root) <= 1e-5, "%s: root %r" % (prefix, got_root))
            checks.expect(abs(got_mod - modulus) <= 1e-5, "%s: modulus %r" % (prefix, got_mod))


# ---------------------------------------------------------------------------
# locus-53

LOCUS_SWEEPS = (("a", 1.0, 4096), ("b", 1.0, 4096), ("c", 1.0, 4096), ("d", 1.0, 4096),
                ("e", 1.0, 4096), ("d", 0.1, 8192), ("k6", 1.0, 2048))
LOCUS_VIOLATING = ("b", "d", "k6")


def _case_bipoly(case):
    g = multigraph.k6_disjoint_triangles() if case == "k6" else multigraph.k4_two_class(case)
    return reliability.connected_subgraph_poly(g)


def locus_setup(seed):
    rng = random.Random(seed)
    bipolys = {case: _case_bipoly(case) for case in ("a", "b", "c", "d", "e", "k6")}
    tasks = [("sweep",) + s for s in LOCUS_SWEEPS]
    tasks += [("endpoint", case, plane) for case, plane in reference.ENDPOINT_ANGLES]
    tasks += [("branch", case, idx) for case in "abcde"
              for idx in range(len(reference.BRANCH_EXPANSIONS[case]))]
    rng.shuffle(tasks)
    return bipolys, tasks


def locus_pass(inputs, rec, checks, out):
    bipolys, tasks = inputs
    for task in tasks:
        label = ":".join(str(x) for x in task)
        with checks.instance(label), rec.span("bench.item", label):
            if task[0] == "sweep":
                _locus_sweep(bipolys, *task[1:], label, rec, checks, out)
            elif task[0] == "endpoint":
                _endpoint(bipolys, *task[1:], label, rec, checks)
            else:
                _branch_fit(bipolys, *task[1:], label, rec, checks)


def _locus_sweep(bipolys, case, lam, n, label, rec, checks, out):
    t0 = time.perf_counter()
    curve = rec.call("roots.trace_locus", roots.trace_locus, bipolys[case], "b", lam, n)
    t1 = time.perf_counter()
    out["items"].append((t0, t1))
    out["samples"] += n
    out["sample_spans"].append((t0, t1))
    violations = curve.violation_count()
    rec.count("roots.trace_locus.samples", len(curve.theta_samples))
    rec.count("roots.trace_locus.gaps", curve.gap_count())
    rec.count("roots.trace_locus.violations", violations)
    checks.expect(len(curve.theta_samples) == n, "%s: %d samples" % (label, len(curve.theta_samples)))
    if case in LOCUS_VIOLATING:
        checks.expect(violations > 0, "%s: no violations" % label)
    else:
        checks.expect(violations == 0, "%s: %d violations" % (label, violations))


def _endpoint(bipolys, case, plane, label, rec, checks):
    expected = reference.ENDPOINT_ANGLES[(case, plane)]
    ep = rec.call("roots.region_endpoint_angle", roots.region_endpoint_angle, bipolys[case], plane)
    checks.expect(abs(ep.angle_fraction - expected) <= 1e-5,
                  "%s: angle %.7f vs %.6f" % (label, ep.angle_fraction, expected))


def _branch_fit(bipolys, case, idx, label, rec, checks):
    hint, kind, lead, sub = reference.BRANCH_EXPANSIONS[case][idx]
    e = rec.call("roots.estimate_branch_coefficients", roots.estimate_branch_coefficients,
                 bipolys[case], hint)
    checks.expect(e.kind == kind, "%s: kind %s" % (label, e.kind))
    lead, sub = complex(lead), complex(sub)
    checks.expect(abs(complex(e.leading) - lead) <= 5e-4 * abs(lead),
                  "%s: leading %r" % (label, complex(e.leading)))
    checks.expect(abs(complex(e.subleading) - sub) <= 5e-4 * abs(sub),
                  "%s: subleading %r" % (label, complex(e.subleading)))
    if kind == "analytic":
        checks.expect(float(roots.analytic_disc_margin(e)) > 0, "%s: margin <= 0" % label)


# ---------------------------------------------------------------------------
# exact-enum

ENUM_VERTICES = (7, 8, 9)
ENUM_EDGES = 22
# Series-parallel multigraph sizes per pass, and weight pairs per graph.
SP_EDGES = (6, 8, 10, 12, 14) * 3
SP_WEIGHT_PAIRS = 8
SP_PRECISION = 128
SP_TOLERANCE = mpf(2) ** -40
SPECIALIZE = ((20, 20), (30, 7), (7, 30))
BUNDLE_COUNT = 4
BUNDLE_LAMBDAS = (0.5, 1.0, 2.0)
CYCLES = range(3, 11)


def _base_graph(n):
    """A fixed connected two-class 22-edge multigraph on n vertices.

    Enumeration time changes by up to +-30% between random 22-edge graphs
    with their shape, edge order and class placement, and the run-to-run
    spread must not measure that draw.  So the structures and classes come
    from constant seeds and the benchmark seed only relabels the vertices
    (enum_graph): the walk then visits the same subsets for every seed.
    """
    rng = random.Random("relzeros-bench-enum-%d" % n)
    pairs = list(combinations(range(n), 2))
    while True:
        chosen = rng.sample(pairs, min(ENUM_EDGES, len(pairs)))
        chosen += [rng.choice(pairs) for _ in range(ENUM_EDGES - len(chosen))]
        edges = [(u, v, rng.randint(0, 1)) for u, v in chosen]
        g = Multigraph(n, tuple(edges))
        if multigraph.is_connected(g) and len(g.class_labels()) == 2:
            return edges


def enum_graph(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return Multigraph(n, tuple((perm[u], perm[v], c) for u, v, c in _base_graph(n)))


def sp_graph(rng, num_edges):
    """Random series-parallel multigraph grown from one edge by series,
    parallel and loop extensions, classes drawn from {0, 1}."""
    edges = [(0, 1, rng.randint(0, 1))]
    num_vertices = 2
    while len(edges) < num_edges:
        i = rng.randrange(len(edges))
        u, v, _ = edges[i]
        op = rng.random()
        if op < 0.45:
            w = num_vertices
            num_vertices += 1
            edges[i] = (u, w, rng.randint(0, 1))
            edges.append((w, v, rng.randint(0, 1)))
        elif op < 0.90:
            edges.append((u, v, rng.randint(0, 1)))
        else:
            edges.append((u, u, rng.randint(0, 1)))
    return Multigraph(num_vertices, tuple(edges))


def _weight(rng):
    return ComplexPoint(rng.uniform(0.3, 2.0), rng.uniform(-1.5, 1.5), SP_PRECISION)


def enum_setup(seed):
    rng = random.Random(seed)
    graphs = [enum_graph(rng, n) for n in ENUM_VERTICES]
    rng.shuffle(graphs)
    sp = [(sp_graph(rng, m), [(_weight(rng), _weight(rng)) for _ in range(SP_WEIGHT_PAIRS)])
          for m in SP_EDGES]
    k6 = reliability.connected_subgraph_poly(multigraph.k6_disjoint_triangles())
    bundles = [(n, shifted_power(n) * shifted_power(n + 1))
               for n in sorted(rng.sample(range(2, 14), BUNDLE_COUNT))]
    cycles = [(n, reliability.connected_subgraph_poly(multigraph.cycle_graph(n)))
              for n in CYCLES]
    return {"graphs": graphs, "sp": sp, "k6": k6, "bundles": bundles, "cycles": cycles}


def _spanning_trees(g):
    """Matrix-tree theorem: det of the reduced Laplacian, in exact Fractions."""
    n = g.num_vertices
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v, _ in g.edges:
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for col in range(n - 1):
        pivot = next((r for r in range(col, n - 1) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n - 1):
            f = m[r][col] / m[col][col]
            if f:
                for k in range(col, n - 1):
                    m[r][k] -= f * m[col][k]
    return int(det)


def _poly_value(poly, wa, wb):
    """Enumerated polynomial at the class weights, in 128-bit mpmath."""
    with mp.workprec(SP_PRECISION):
        a = wa.to_mpc()
        if isinstance(poly, ExactBiPoly):
            b = wb.to_mpc()
            return sum(c * a ** da * b ** db for (da, db), c in poly.terms.items())
        return sum(c * a ** k for k, c in enumerate(poly.coeffs))


def enum_pass(inputs, rec, checks, out):
    t_pass = time.perf_counter()
    for g in inputs["graphs"]:
        _enumerate(g, rec, checks, out)
    for idx, (g, weights) in enumerate(inputs["sp"]):
        _series_parallel(idx, g, weights, rec, checks, out)
    for p1, p2 in SPECIALIZE:
        _specialize(inputs["k6"], p1, p2, rec, checks, out)
    for n, poly in inputs["bundles"]:
        for lam in BUNDLE_LAMBDAS:
            label = "bundle-product:%d:%g" % (n, lam)
            with checks.instance(label), rec.span("bench.item", label):
                holds = rec.call("roots.bc_lambda_holds_univariate",
                                 roots.bc_lambda_holds_univariate, poly, lam)
                out["samples"] += 1
                checks.expect(holds == (lam <= 1), "%s: holds=%r" % (label, holds))
    for n, poly in inputs["cycles"]:
        label = "cycle:%d" % n
        with checks.instance(label), rec.span("bench.item", label):
            val = float(rec.call("roots.lambda_star_univariate", roots.lambda_star_univariate, poly))
            out["samples"] += 1
            checks.expect(abs(val - n / 2) <= 1e-9, "%s: lambda-star %r" % (label, val))
    out["sample_spans"].append((t_pass, time.perf_counter()))


def _enumerate(g, rec, checks, out):
    label = "enum:%d:%d" % (g.num_vertices, g.num_edges)
    with checks.instance(label), rec.span("bench.item", label):
        t0 = time.perf_counter()
        poly = rec.call("reliability.connected_subgraph_poly", reliability.connected_subgraph_poly, g)
        out["items"].append((t0, time.perf_counter()))
        out["samples"] += 1
        rec.maximum("reliability.connected_subgraph_poly.edges_max", g.num_edges)
        low = min(da + db for da, db in poly.terms)
        trees = sum(c for (da, db), c in poly.terms.items() if da + db == g.num_vertices - 1)
        want = _spanning_trees(g)
        checks.expect(low == g.num_vertices - 1 and trees == want,
                      "%s: %d spanning trees at degree %d, matrix-tree %d" % (label, trees, low, want))


def _series_parallel(idx, g, weights, rec, checks, out):
    label = "sp:%d:%d" % (idx, g.num_edges)
    with checks.instance(label), rec.span("bench.item", label):
        sp = rec.call("multigraph.is_series_parallel", multigraph.is_series_parallel, g)
        checks.expect(sp, "%s: not recognised as series-parallel" % label)
        poly = rec.call("reliability.connected_subgraph_poly", reliability.connected_subgraph_poly, g)
        rec.maximum("reliability.connected_subgraph_poly.edges_max", g.num_edges)
        labels = g.class_labels()
        for wa, wb in weights:
            per_class = {0: wa, 1: wb}
            got = rec.call("reliability.reduce_sp_value", reliability.reduce_sp_value,
                           g, [per_class[c] for _, _, c in g.edges])
            if len(labels) == 2:
                want = _poly_value(poly, wa, wb)
            else:
                want = _poly_value(poly, per_class[labels[0]], None)
            out["samples"] += 1
            with mp.workprec(SP_PRECISION):
                err = abs(got.to_mpc() - want)
                checks.expect(err <= SP_TOLERANCE * abs(want),
                              "%s: reduction off by %s" % (label, mp.nstr(err, 5)))


def _specialize(k6, p1, p2, rec, checks, out):
    label = "k6:%d:%d" % (p1, p2)
    with checks.instance(label), rec.span("bench.item", label):
        poly = rec.call("reliability.two_class_specialize", reliability.two_class_specialize, k6, p1, p2)
        out["samples"] += 1
        rec.maximum("reliability.two_class_specialize.degree_max", poly.degree)
        # at v = 1 each class weight becomes 2^p - 1
        a, b = 2 ** p1 - 1, 2 ** p2 - 1
        want = sum(c * a ** da * b ** db for (da, db), c in k6.terms.items())
        checks.expect(sum(poly.coeffs) == want, "%s: value at v=1" % label)
        checks.expect(poly.degree == p1 * k6.degree_a + p2 * k6.degree_b,
                      "%s: degree %d" % (label, poly.degree))


# name -> (setup(seed) -> inputs, run_pass(inputs, rec, checks, out))
WORKLOADS = {
    "mp-roots": (mp_setup, mp_pass),
    "locus-53": (locus_setup, locus_pass),
    "exact-enum": (enum_setup, enum_pass),
}
