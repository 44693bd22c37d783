"""Acceptance suite: one test (or small group) per criterion, each printing
a pass/fail line.  Criteria 2-8 run the reproduction rows of
relzeros.reference, where their published values and tolerances are pinned;
`relzeros reproduce` prints the same rows."""

import itertools
import random

import pytest
from mpmath import mp, mpf

from relzeros import (
    ComplexPoint,
    ExactBiPoly,
    ExactUniPoly,
    connected_subgraph_poly,
    find_roots,
    is_series_parallel,
    k4_two_class,
    reduce_sp_value,
    subdivided_univariate,
    two_class_specialize,
)
from relzeros import reference
from refdata import CASE_POLYS, K4_UNIVARIATE, K6_BIPOLY
from util_graphs import (
    distance,
    evaluate_bi,
    evaluate_uni,
    has_k4_topological_minor,
    parallel_expand,
    random_connected_graph,
    random_sp_multigraph,
    uniform_class,
)


def note(cid, message):
    print("[acceptance] criterion %s: PASS (%s)" % (cid, message))


def fail_note(cid, message):
    print("[acceptance] criterion %s: FAIL (%s)" % (cid, message))


def test_01_exact_polynomial_regression(families):
    from relzeros import complete_graph

    assert connected_subgraph_poly(complete_graph(4)) == K4_UNIVARIATE
    for case in "abcde":
        assert families.bipoly(case) == CASE_POLYS[case], "case %s mismatch" % case
    assert families.bipoly("k6") == K6_BIPOLY
    note(1, "K4 univariate, five two-class cases, and K6 match coefficient-for-coefficient")


def assert_rows(families, rows):
    """Run reproduction rows (the ones `relzeros reproduce` prints); all must pass."""
    results = [row.run(families) for row in rows]
    failed = [r for r in results if not r["pass"]]
    assert not failed, failed
    return results


def test_02_table1_reproduction(families):
    results = assert_rows(families, reference.table1_rows())
    note(2, "%d table rows within 1e-6; d-family scan 16..30 first violates at p=30"
         % (len(results) - 1))


def test_03_named_counterexample_roots(families):
    assert_rows(families, reference.named_root_rows())
    note(3, "all four named roots present to 1e-5 with quoted |1+v| to 1e-6")


def test_04_simple_planar_construction(families):
    assert_rows(families, reference.construction_rows())
    note(4, "k=58 and k=36 minimal exponents with |1+2*v_k| to 1e-9")


def test_05_k6_counterexample(families):
    assert families.poly("k6", 1, 6).degree == 60
    assert_rows(families, reference.k6_rows())
    note(5, "degree-60 specialization has the quoted root and |1+v| = 0.960375")


def test_06_region_endpoints(families):
    assert_rows(families, reference.endpoint_rows())
    note(6, "all four endpoint angles within 1e-5")


def test_07_branch_expansions(families):
    results = assert_rows(families, reference.branch_rows())
    assert sum(r["item"].endswith("-margin-positive") for r in results) == 6
    note(7, "all published expansion coefficients to 3 significant figures; "
            "6 analytic margins positive")


def test_08_lambda_star_cycles_and_multi_bundles(families):
    assert_rows(families, [row for row in reference.lambda_star_rows()
                           if row.item != "lambda-star-bundle-1"])
    note(8, "cycles n=3..10 give n/2 and bundles n=2..6 give 1, each to 1e-9")


@pytest.mark.xfail(strict=True, reason=(
    "stated expectation 1 for the single-edge bundle is unattainable: its "
    "only zero v=0 lies on the boundary of every disc |lam+v| < lam, so no "
    "lam is constrained and the defined supremum is +inf"))
def test_08_lambda_star_single_edge_bundle(families):
    row, = [row for row in reference.lambda_star_rows() if row.item == "lambda-star-bundle-1"]
    result = row.run(families)
    if not result["pass"]:
        fail_note(8, "single-edge bundle gives %s, stated expectation 1" % result["computed"])
    assert result["pass"]


def test_09i_reduction_calculus_vs_enumeration():
    rng = random.Random(161803)
    checked = 0
    for _ in range(200):
        g = random_sp_multigraph(rng, max_edges=12)
        wa = ComplexPoint(rng.uniform(0.3, 2.0), rng.uniform(-1.5, 1.5), 128)
        wb = ComplexPoint(rng.uniform(0.3, 2.0), rng.uniform(-1.5, 1.5), 128)
        per_class = {0: wa, 1: wb}
        got = reduce_sp_value(g, [per_class[c] for _, _, c in g.edges])
        poly = connected_subgraph_poly(g)
        if isinstance(poly, ExactBiPoly):
            want = evaluate_bi(poly, wa, wb)
        else:
            want = evaluate_uni(poly, per_class[g.class_labels()[0]])
        assert distance(got, want) <= mpf(2) ** -40 * abs(want), g
        checked += 1
    note("9i", "%d random series-parallel graphs: reduction = enumeration to 2^-40" % checked)


def test_09ii_subdivision_root_scaling():
    rng = random.Random(271828)
    checked = 0
    while checked < 50:
        deg = rng.randint(2, 10)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        if rng.random() < 0.3:
            coeffs[0] = 0
        p = ExactUniPoly(coeffs)
        if p.degree < 1:
            continue
        s = rng.randint(2, 5)
        out = subdivided_univariate(p, s)
        base = find_roots(p, 128)
        scaled = find_roots(out, 128)
        assert scaled.zero_multiplicity == base.zero_multiplicity + (s - 1) * p.degree
        # pairwise match within combined radii (plus slack for the scaling)
        want = [complex(z) * s for z in base.roots]
        radii = [float(e) * s for e in base.error_radii]
        for z, e in zip(scaled.roots, scaled.error_radii):
            zc = complex(z)
            idx = min(range(len(want)), key=lambda i: abs(want[i] - zc))
            tol = radii[idx] + float(e) + 1e-9 * (1 + abs(zc))
            assert abs(want[idx] - zc) <= tol, (p.coeffs, s)
            want.pop(idx)
            radii.pop(idx)
        checked += 1
    note("9ii", "nonzero roots scale by s on 50 random instances")


def test_09iii_sp_recognition_vs_minor_oracle():
    networkx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g
    from relzeros import Multigraph

    checked = 0
    for g in graph_atlas_g():
        n = g.number_of_nodes()
        if not 1 <= n <= 6:
            continue
        if not networkx.is_connected(g):
            continue
        mg = Multigraph(n, tuple((u, v, 0) for u, v in g.edges()))
        assert is_series_parallel(mg) == (not has_k4_topological_minor(mg)), g.edges()
        checked += 1
    assert checked == 143  # connected graphs on <= 6 vertices, up to isomorphism
    rng = random.Random(314159)
    sampled = 0
    for _ in range(40):
        n = rng.choice((7, 8))
        mg = random_connected_graph(rng, n, rng.randint(0, 7))
        assert is_series_parallel(mg) == (not has_k4_topological_minor(mg))
        sampled += 1
    note("9iii", "oracle agreement on %d atlas graphs and %d random 7-8 vertex graphs"
         % (checked, sampled))


def test_09iv_specialize_vs_expanded_enumeration(families):
    checked = 0
    for case in "abcde":
        g = k4_two_class(case)
        for p1, p2 in itertools.product((1, 2, 3), repeat=2):
            m = [p1 if c == 0 else p2 for _, _, c in g.edges]
            expanded = connected_subgraph_poly(uniform_class(parallel_expand(g, m)))
            assert two_class_specialize(families.bipoly(case), p1, p2) == expanded
            checked += 1
    note("9iv", "exact agreement on %d (case, p1, p2) instances" % checked)


def test_09v_conjugate_closure_and_root_sums(families):
    # the named and K6 roots' conjugates are checked here, not by their rows
    instances = list(reference.NAMED_ROOTS) + [("k6", p1, p2) for p1, p2 in reference.K6_ROOT]
    for (case, fam), _ in reference.TABLE1_MIN_DISC.items():
        for p in reference.TABLE1_P_RANGE:
            instances.append((case, 1, p) if fam == "1p" else (case, p, 1))
    for p in range(16, 31):
        instances.append(("d", p, 1))
    seen = set()
    for case, p1, p2 in instances:
        if (case, p1, p2) in seen:
            continue
        seen.add((case, p1, p2))
        poly = families.poly(case, p1, p2)
        rs = families.roots(case, p1, p2)
        assert rs.degree == poly.degree
        with mp.workprec(rs.precision):
            total = sum((z.to_mpc() for z in rs.roots), mp.mpc(0))
            expected = -mpf(poly.coeffs[-2]) / poly.coeffs[-1]
            # per-root uncertainty is the certified radius, not 2^-precision
            budget = sum(rs.error_radii) + mpf(2) ** -(rs.precision - 60) * (1 + abs(expected))
            assert abs(total - expected) <= budget, (case, p1, p2)
            pts = [z.to_mpc() for z in rs.roots]
            for z, e in zip(pts, rs.error_radii):
                target = z.conjugate()
                match, partner_e = min(
                    ((abs(target - w), ew) for w, ew in zip(pts, rs.error_radii)),
                    key=lambda t: t[0])
                assert match <= e + partner_e + mpf(2) ** -(rs.precision - 30), (case, p1, p2)
    note("9v", "root sums and conjugate closure on %d instances" % len(seen))


def test_10_locus_scale_invariance(locus):
    for case in ("b", "d"):
        for lam in (1.0, 0.1, 0.01):
            curve = locus.curve(case, lam)
            assert curve.violation_count() > 0, (case, lam)
    for case in ("a", "c", "e"):
        curve = locus.curve(case, 1.0, 4096)
        assert curve.violation_count() == 0, case
    note(10, "cases b/d violate at lam in {1, 0.1, 0.01}; cases a/c/e clean "
             "over a 4096-sample grid at lam=1")
